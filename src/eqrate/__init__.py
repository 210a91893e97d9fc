"""Clone-invariant game-theoretic rating engine.

Builds N-player general-sum evaluation games, solves them for
affinity-entropy-selected Nash and coarse-correlated equilibria, and turns
the equilibria into regret ratings that are robust to duplicated actions.
"""

from .games import (
    Game,
    JointDistribution,
    ProductProfile,
    deviation_payoff,
    expected_utility,
    exploitability,
    load_game,
    regret,
    save_game,
)
from .kernels import (
    AffinityKernel,
    affinity_entropy,
    affinity_entropy_gradient,
    affinity_targets,
    dissimilarity_factorized,
    dissimilarity_joint,
    max_affinity_entropy,
    shannon_affinity_entropy,
    similarity_kernel,
)
from .koth import (
    KOTHGame,
    PreferenceRecord,
    PreferenceTable,
    adversarial_prompt_sampler,
    build_koth,
    inject_clones,
)
from .ratings import DecompositionTable, RatingReport, decompose, elo_ratings, rate, separability
from .skillsim import SimConfig, SkillWorld, build_skill_game, entropy_trace, run_simulation, skill_utility
from .solvers import (
    CCEConfig,
    EquilibriumResult,
    QREConfig,
    cce_dual_logit,
    enumerate_nes,
    qre_best_response,
    qre_loss,
    risk_dominance_beliefs,
    solve_lle,
    solve_mre_cce,
)

__version__ = "0.1.0"
