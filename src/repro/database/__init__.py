"""Cart3D-style automated parameter studies (paper section IV):
config-space x wind-space definitions, hierarchical job control, node
packing (the planner), the executing fill runtime, journal-backed
checkpoint/resume with deterministic fault injection, and the
aero-performance database itself — the content-keyed
:class:`ResultStore` every campaign fills, whose missing cases re-run on
demand (the paper's virtual database)."""

from ..errors import CaseExecutionError, CaseTimeout
from .chaos import ChaosPolicy
from .checkpoint import CampaignCheckpoint, CheckpointState, FillEvent
from .handles import CaseHandle, FillReport, JobOutcome
from .jobs import FlowJob, GeometryJob, build_job_tree, meshing_amortization
from .parameters import Axis, ParameterSpace, StudyDefinition, standard_study
from .resultstore import ResultStore
from .runner import Cart3DCaseRunner
from .runtime import FillRuntime, SharedGeometry
from .scheduler import SchedulePlan, schedule_fill

__all__ = [
    "Axis",
    "ParameterSpace",
    "StudyDefinition",
    "standard_study",
    "FlowJob",
    "GeometryJob",
    "build_job_tree",
    "meshing_amortization",
    "SchedulePlan",
    "schedule_fill",
    "ResultStore",
    "FillRuntime",
    "FillReport",
    "FillEvent",
    "JobOutcome",
    "CaseHandle",
    "CaseExecutionError",
    "CaseTimeout",
    "CampaignCheckpoint",
    "CheckpointState",
    "ChaosPolicy",
    "SharedGeometry",
    "Cart3DCaseRunner",
]
