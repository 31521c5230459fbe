"""Order-resolved interaction analysis for masked value functions."""

from .errors import (
    DimensionError,
    DomainError,
    GuardError,
    InteractionLabError,
    NumericError,
    SchemaError,
    ValidationError,
    VerificationError,
)
from .games import (
    Baseline,
    PolynomialGame,
    SyntheticGame,
    ValueFunction,
    compute_baseline,
    masked_matrix,
    synthetic_game,
)
from .interactions import (
    EfficiencyReport,
    InteractionEstimate,
    LogOddsGame,
    OrderProfile,
    default_order_grid,
    efficiency_residual,
    interaction_order_exact,
    interaction_order_mc,
    order_profile,
    order_weights,
    read_profile_csv,
    write_profile_csv,
)
from .mlp import (
    MLP,
    ParamGrads,
    accuracy,
    ce_value_and_grad,
    cross_entropy,
    cross_entropy_grad,
    load_model,
    log_softmax,
    save_model,
    softmax,
)
from .modulation import (
    ModulationSpec,
    band_sizes,
    band_value_and_grad,
    combined_value_and_grad,
    round_half_up,
    verify_theorem2,
)
from .rng import child_seed, make_rng
from .attack import AttackConfig, adversarial_accuracy, pgd_attack
from .datasets import (
    BUNDLED_TASKS,
    TabularDataset,
    apply_standardization,
    bundled_dataset,
    load_dataset_csv,
    make_conjunction_task,
    make_pairwise_task,
    resolve_dataset,
    split_dataset,
    standardize,
    write_dataset_csv,
)
from .training import (
    EpochStats,
    TrainConfig,
    TrainLog,
    VARIANT_TERMS,
    train,
    write_snapshots,
    write_train_log,
)
from .theory import (
    EffectiveNFit,
    GradSimConfig,
    TheoryCurve,
    contextual_variability,
    fit_effective_n,
    learning_strength_hat,
    mean_norm_gaussian,
    predicted_update_norm,
    simulate_curve,
    simulate_learning_strength,
    theory_curve,
    write_theory_csv,
)

__version__ = "0.1.0"
