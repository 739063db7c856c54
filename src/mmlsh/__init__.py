"""mmlsh: object-level approximate nearest neighbor search for multimedia data.

Multimedia objects are sets of high-dimensional feature vectors; this package
indexes the points with Euclidean LSH, answers top-k object queries through
collision counting with provable stopping conditions, and simulates
buffer-conscious query scheduling over a modeled disk.
"""

from .baselines import (GroundTruth, borda_aggregate, exact_knn_objects, full_ranking,
                        ground_truth_key, load_ground_truth, point_knn_c2lsh,
                        point_knn_linear, save_ground_truth)
from .buffering import (MMLSH, NS1, NS2, BufferState, CostModel, FrequencyProfile,
                        QueryStats, SchedulerConfig, access_bucket, build_frequency_profile,
                        evict_lru, evict_mmlsh, schedule_ns1, schedule_ns2, split_queries)
from .engine import (QueryResult, check_t1, check_t2, count_collisions, gamma_min_bound,
                     knn_objects)
from .errors import (FeatureFileError, IndexFileError, NonFiniteCoordinateError,
                     ObjectMapError, ParameterError, ProfileFileError, UnknownObjectError)
from .lsh import (DEFAULT_C, DEFAULT_W, LshIndex, LshParams, build_index,
                  collision_probability, derive_params, hash_points, level_cap,
                  load_index, reach_range, save_index)
from .model import (Dataset, QueryObject, load_feature_file, load_object_map,
                    synth_dataset, write_feature_file)
from .similarity import (GammaParams, gamma_distance, gamma_distances, object_ratio,
                         r_object_similarity)

__version__ = "0.1.0"
