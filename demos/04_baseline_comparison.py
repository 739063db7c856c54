"""Accuracy comparison: the object engine vs point-retrieval + Borda fusion.

The classical pipeline answers an object query by running a point query per
feature vector (exactly with a linear scan, or approximately with point-level
collision counting) and fusing the per-point rankings with a positional Borda
count. The object engine instead estimates object similarity directly from
collision statistics and ranks candidates by exact gamma-distance.
"""

import numpy as np

import mmlsh
from mmlsh.baselines import borda_aggregate, point_knn_c2lsh, point_knn_linear

dataset = mmlsh.synth_dataset(S=200, points_per_object=20, d=32,
                              cluster_spread=1.0, seed=1)
params = mmlsh.derive_params(delta=0.1, beta=0.9, c=2, w=2.184)
index = mmlsh.build_index(dataset, params, seed=1)
gp = mmlsh.GammaParams(gamma=0.5, delta=0.1, beta=0.9, epsilon=0.6)

k, k_prime = 10, 50
rng = np.random.default_rng(4)
query_ids = sorted(int(o) for o in rng.choice(200, size=5, replace=False))

ratios = {"engine": [], "linear-borda": [], "c2lsh-borda": []}
for oid in query_ids:
    query = mmlsh.QueryObject.from_object(dataset, oid)
    truth = mmlsh.exact_knn_objects(query, dataset, k, gp.gamma)
    truth_dists = [d for _, d in truth]

    result = mmlsh.knn_objects(query, k, index, dataset, gp)
    ratio, _ = mmlsh.object_ratio([d for _, d in result.top_k],
                                  truth_dists[:len(result.top_k)])
    ratios["engine"].append(ratio)

    for name, rankings in (
            ("linear-borda", point_knn_linear(query.coords, dataset, k_prime)),
            ("c2lsh-borda", point_knn_c2lsh(query.coords, index, dataset, k_prime))):
        top = borda_aggregate(rankings, dataset, k, k_prime)
        ranks = np.searchsorted(dataset.object_ids, [o for o, _ in top])
        dists = mmlsh.gamma_distances(query.coords, dataset, ranks, gp.gamma)
        ratio, _ = mmlsh.object_ratio(dists, truth_dists[:len(top)])
        ratios[name].append(ratio)

print(f"object ratio over {len(query_ids)} queries, k={k}, k'={k_prime} "
      f"(1.0 is perfect):")
for name, values in ratios.items():
    print(f"  {name:13s} mean={np.mean(values):.4f} worst={max(values):.4f}")
