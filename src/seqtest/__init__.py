"""Sequential and multistage hypothesis tests driven by confidence limits.

The package builds test plans whose stopping and decision rules come from
per-stage confidence limits on the parameter, evaluates their operating
characteristics exactly by dynamic programming, tunes the risk scale
against exact verification, and compares the designs with the classical
probability-ratio test by closed form and by simulation.  A two-sample
branch handles the difference of binomial proportions with certified
risk bounds over parameter rectangles.
"""

from .errors import (
    SeqTestError,
    DomainError,
    InfeasibleDesignError,
    StreamExhaustedError,
    UnsupportedModelError,
    PlanDocumentError,
)
from .models import Bernoulli, Poisson, model_by_name
from .conflimits import ExactLimits, ChernoffLimits, ApproxLimits, family_by_tag
from .plans import (
    StageRule,
    MultiHypPlan,
    OneSidedPlan,
    TestOutcome,
    sample_bound,
    build_multihyp_plan,
    build_one_sided_plan,
    run_plan,
)
from .ocexact import OCReport, RiskReport, oc_single, oc_curve, verify_risk
from .tuning import TuneResult, tune_zeta, tune_one_sided, tune_multihyp
from .sprt import SprtSpec, run_sprt, sprt_oc_asn
from .sim import SimReport, CompareReport, simulate, compare
from .twoprop import (
    Rectangle,
    TwoPropPlan,
    RiskCertificate,
    newcombe_limits,
    build_two_prop_plan,
    run_two_prop,
    rejection_prob_bounds,
    certify_risk,
    tune_two_prop,
)
from .plandoc import plan_to_doc, doc_to_plan, dump_doc, parse_doc, save_plan, load_plan

__version__ = "0.1.0"

__all__ = [
    "SeqTestError", "DomainError", "InfeasibleDesignError",
    "StreamExhaustedError", "UnsupportedModelError", "PlanDocumentError",
    "Bernoulli", "Poisson", "model_by_name",
    "ExactLimits", "ChernoffLimits", "ApproxLimits", "family_by_tag",
    "StageRule", "MultiHypPlan", "OneSidedPlan", "TestOutcome",
    "sample_bound", "build_multihyp_plan", "build_one_sided_plan", "run_plan",
    "OCReport", "RiskReport", "oc_single", "oc_curve", "verify_risk",
    "TuneResult", "tune_zeta", "tune_one_sided", "tune_multihyp",
    "SprtSpec", "run_sprt", "sprt_oc_asn",
    "SimReport", "CompareReport", "simulate", "compare",
    "Rectangle", "TwoPropPlan", "RiskCertificate",
    "newcombe_limits", "build_two_prop_plan",
    "run_two_prop", "rejection_prob_bounds", "certify_risk", "tune_two_prop",
    "plan_to_doc", "doc_to_plan", "dump_doc", "parse_doc",
    "save_plan", "load_plan",
    "__version__",
]
