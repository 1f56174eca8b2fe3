"""Budget-constrained, fairness-aware seed selection on social graphs.

Implements Independent Cascade diffusion, profit and maximin-fairness
metrics, message-passing node embeddings, a deep Q-learning seed selector,
classic baselines, and a reproducible experiment harness.
"""

from .baselines import (fair_pagerank_seeds, high_degree_seeds, pagerank,
                        pagerank_seeds, parity_seeds, random_seeds)
from .diffusion import (LiveArcs, SeedSet, estimate_spread_and_benefit,
                        exact_expected_profit, exact_expected_shaped_objective,
                        live_arc_lists, live_arcs, simulate_ic)
from .embedding import (EmbeddingParams, compute_embeddings,
                        init_embedding_params)
from .experiment import (ExperimentConfig, ExperimentResult, emit_report,
                         run_experiment)
from .graph import (CommunityPartition, Graph, Instance, InstancePool,
                    NodeAttrs, TrivalencyProbabilities, UniformProbabilities,
                    assign_communities, assign_edge_probabilities,
                    assign_node_attributes, build_instance_pool,
                    graph_from_edges, load_edge_list, load_node_attributes,
                    sample_subgraph)
from .metrics import (FairnessConfig, MetricReport, community_ratios,
                      evaluate_seed_set, shaped_return)
from .qnet import (QNetwork, QTable, adam_step, best_feasible,
                   best_feasible_rows, hidden_table, q_loss_and_grad,
                   state_rows)
from .trainer import (CheckpointError, TrainConfig, TrainedPolicy,
                      Transition, epsilon_greedy_select, load_checkpoint,
                      run_episode, save_checkpoint, select_seed_set, train)

__version__ = "0.1.0"
