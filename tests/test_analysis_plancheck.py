"""Exchange-plan failures, checked on running exchanges.

The static plan verifier is gone: plans have one producer,
:func:`~repro.comm.build_halos`, and the exchange property
(``assert_exchange_roundtrip`` in ``test_comm_exchange.py``) checks it
on drawn partitions.  Each fixture of the verifier is a row of the
planted-bug matrix (``tests/test_planted_bugs.py``); these classes keep
the fixtures' test ids as pointers to their rows.
"""

from tests.test_planted_bugs import row_test


class TestCleanPlans:
    test_seed_mesh_8_ranks_zero_diagnostics = row_test("control/halos-8-strips")
    test_seed_mesh_random_partition_zero_diagnostics = row_test(
        "control/halos-random")
    test_report_counts_are_zero = row_test("control/halos-8-strips")


class TestCorruptedPlans:
    test_reversed_mirror_is_order_mismatch = row_test("plan/reversed-mirror")
    test_length_mismatch_detected = row_test("plan/length-mismatch")
    test_dropped_neighbor_deadlocks_schedule = row_test("plan/dropped-neighbor")
    test_duplicate_ghost_owner_detected = row_test("plan/duplicate-ghost-owner")
    test_ghost_slot_out_of_range = row_test("plan/ghost-slot-range")
    test_wrong_owner_detected = row_test("plan/wrong-owner")


class TestScheduleSimulator:
    test_symmetric_ring_is_live = row_test("control/symmetric-ring")
    test_circular_wait_reports_cycle = row_test("plan/circular-wait")
    test_missing_send_reports_waiting_rank = row_test("plan/missing-send")


class TestPairwiseDirect:
    test_send_without_ghost_mirror = row_test("plan/send-without-mirror")
