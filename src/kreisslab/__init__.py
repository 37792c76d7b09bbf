"""Numerical laboratory for resolvent bounds, Cesaro means, and power-norm
growth of structured Hilbert-space operators.
"""

from .cesaro import (
    PROBE_TOLERANCE,
    ErgodicProbe,
    MeanBracket,
    MeanSeries,
    cesaro_identity_check,
    ergodic_probe,
    mean_difference_decay,
    rotated_mean_norm_profile,
    shift_mean_norm_bracket,
)
from .constructions import (
    CatalogEntry,
    DirectSumParams,
    ErgcesParams,
    TNParams,
    build_TN,
    build_bermbmp_shift,
    build_ergces,
    build_shields_counterexample,
    build_tz_block,
    ergces_power_closed_form,
    ergces_power_sums,
    make_operator,
    shields_certified_kmax,
    tn_weights,
    tz_block_power,
    tz_block_power_norms,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    SingularError,
    SizeError,
    ValidationError,
)
from .growth import GrowthReport, growth_fit
from .kreiss import (
    AnnulusGrid,
    KreissReport,
    dyadic_ladder,
    kb2_constant,
    kreiss_constant,
    lemma21_bound,
    orbit_norms,
    resolvent_norm,
    run_hilbert_claims,
    strong_kreiss_constant,
    tn_claim1_bound,
    tn_claim2_bound,
    uniform_kreiss_constant,
)
from .operators import (
    DENSE_CAP,
    SEED,
    Dense,
    DirectSum,
    NormEstimate,
    NormSeries,
    OperatorSpec,
    RotatedScale,
    WeightedShift,
    adjoint,
    apply,
    apply_adjoint,
    blocks,
    dimension,
    is_shift_like,
    materialize,
    power_norms,
    resolvent_apply,
    spectral_norm,
)
from .reports import CheckRecord, RunConfig, emit_report, gate, to_json_bytes, write_csv
from .reproduce import REPRODUCIBLE_IDS

__all__ = [name for name in dir() if not name.startswith("_")]
