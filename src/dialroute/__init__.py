"""Cost-aware routing between small and large dialogue-state-tracking experts.

The package turns each dialogue turn into a (state, system, user) triplet,
embeds it, and routes it to the cheapest expert likely to get the turn
exactly right — by retrieving the turn's nearest neighbours from per-expert
pools of previously-solved turns and taking a majority vote. A small linear
adapter trained on task- and expert-aware contrastive pairs sharpens the
embedding space the vote happens in. Reference routers (oracle, confidence
cascade, logistic probe) and a FLOPs-style cost model round out the toolkit.
"""

from .cli import main
from .config import EmbedderSpec, RunConfig, SimulationSpec, load_config, parse_config
from .dialogue import (
    Corpus,
    Dialogue,
    LabeledTurn,
    Triplet,
    Turn,
    aggregate_state,
    load_corpus,
    make_belief,
    save_corpus,
    slot_name,
    turn_key,
)
from .embedding import (
    EmbeddingStore,
    HashEmbedder,
    ProjectionAdapter,
    load_adapter,
    load_store,
    project,
    save_adapter,
    save_store,
    serialize_triplet,
)
from .errors import InputError
from .experts import (
    LLM,
    SLM,
    ExpertId,
    ExpertPool,
    ExpertPrediction,
    PoolEntry,
    ReplayExpert,
    SyntheticExpert,
    SyntheticProfile,
    assign_expert_label,
    build_pools,
    judge_correct,
    load_pool,
    load_predictions,
    sample_pool,
    save_pool,
    write_predictions,
)
from .metrics import (
    CostTable,
    Report,
    categorize_ood,
    make_report,
    make_series,
    save_report,
    save_series,
    total_cost,
)
from .routing import (
    CascadeRouter,
    ClassifierRouter,
    ConstantRouter,
    OracleRouter,
    RetrievalRouter,
    RoutedRun,
    RoutingDecision,
    TurnContext,
    load_run,
    run_pipeline,
    save_run,
    train_classifier_router,
    tune_cascade_threshold,
)
from .seeding import subseed
from .similarity import f1_sets, tlb_similarity
from .simulate import run_simulation
from .supervision import (
    PairSet,
    merge_pairs,
    mine_expert_pairs,
    mine_task_pairs,
    train_adapter,
)

__version__ = "0.1.0"
