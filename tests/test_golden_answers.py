"""Golden answers of the exact ranking, the object engine and the Borda baselines.

The figures were taken on the `small_dataset`/`small_index` fixtures while
the dataset still stored one object per feature point; the array-only
dataset must reproduce them bit for bit. The digests cover every one of the
20 objects as a query: `full_ranking`'s whole ranking with its distances,
and `knn_objects`' stop condition, levels, collision increments and top-3.
"""

import hashlib

import mmlsh
from mmlsh.baselines import borda_aggregate, full_ranking, point_knn_c2lsh, point_knn_linear

GP = mmlsh.GammaParams(gamma=0.5, delta=0.25, beta=0.5, epsilon=0.5)

# query object -> first four (object_id, gamma-distance) of the exact ranking
GOLDEN_RANKING_HEAD = {
    0: [(0, 0.39453451763976627), (6, 1.9728422545428657), (16, 2.0342175742337343),
        (10, 2.1091133390160466)],
    6: [(6, 0.46084277808621277), (3, 1.6265031114221817), (10, 1.6415227790882292),
        (11, 1.6853969788081038)],
    13: [(13, 0.4858700179833185), (16, 2.2915079623898995), (9, 2.3577643894269458),
         (5, 2.42345612567907)],
    19: [(19, 0.42786826624731483), (12, 2.8331946078523598), (8, 2.897709805840439),
         (9, 2.9780923957025545)],
}
# query object -> (stop condition, levels used, collision increments, top-3)
GOLDEN_KNN = {
    0: ("T2", 2, 31176, [(0, 0.39453451763976627), (6, 1.9728422545428657),
                         (16, 2.0342175742337343)]),
    6: ("T2", 1, 21127, [(6, 0.46084277808621277), (3, 1.6265031114221817),
                         (11, 1.6853969788081038)]),
    13: ("T2", 2, 28236, [(13, 0.4858700179833185), (16, 2.2915079623898995),
                          (9, 2.3577643894269458)]),
    19: ("T2", 2, 23228, [(19, 0.42786826624731483), (12, 2.8331946078523598),
                          (9, 2.9780923957025545)]),
}
RANKING_DIGEST = "3269b03ac3d4e6f2ab38bf019c22cdd15d124c5aec2d40dddf13b1b7f1a03910"
KNN_DIGEST = "dcd2f7aac94eeef7c3e946baa98a2f9cf650b955661b44e0559cbadc3a5ac935"
# query object -> Borda top-5 at k'=10 from exact and from C2LSH point rankings
GOLDEN_BORDA = {
    6: ([(6, 416), (10, 9), (3, 8), (11, 6), (17, 1)],
        [(6, 416), (3, 9), (11, 8), (10, 4), (17, 2)]),
    13: ([(13, 416), (9, 13), (16, 10), (5, 1)],
         [(13, 416), (9, 13), (16, 5), (12, 3), (5, 1)]),
}
# query object -> first query point's top-3 (point id, distance), both baselines
GOLDEN_POINT_HEAD = {
    6: [(48, 0.0), (55, 0.2881908475286641), (54, 0.35837397000686083)],
    13: [(104, 0.0), (105, 0.2956775278388898), (111, 0.41012489279456876)],
}


def test_full_ranking_and_knn_objects_match_golden(small_dataset, small_index):
    ranking_digest, knn_digest = hashlib.sha256(), hashlib.sha256()
    for oid in range(small_dataset.num_objects):
        q = mmlsh.QueryObject.from_object(small_dataset, oid)
        gt = full_ranking(q, small_dataset, GP.gamma)
        ranking_digest.update(repr((oid, gt.object_ids, gt.distances)).encode())
        res = mmlsh.knn_objects(q, 3, small_index, small_dataset, GP)
        line = (oid, res.stop_condition, res.levels_used, res.stats.collision_increments,
                res.top_k)
        knn_digest.update(repr(line).encode())
        if oid in GOLDEN_KNN:
            assert list(zip(gt.object_ids[:4], gt.distances[:4])) == GOLDEN_RANKING_HEAD[oid]
            assert line[1:] == GOLDEN_KNN[oid]
    assert ranking_digest.hexdigest() == RANKING_DIGEST
    assert knn_digest.hexdigest() == KNN_DIGEST


def test_borda_baselines_match_golden(small_dataset, small_index):
    for oid, (want_linear, want_c2lsh) in GOLDEN_BORDA.items():
        q = mmlsh.QueryObject.from_object(small_dataset, oid)
        linear = point_knn_linear(q.coords, small_dataset, 10)
        c2lsh = point_knn_c2lsh(q.coords, small_index, small_dataset, 10)
        assert linear[0][:3] == GOLDEN_POINT_HEAD[oid]
        assert c2lsh[0][:3] == GOLDEN_POINT_HEAD[oid]
        assert borda_aggregate(linear, small_dataset, 5, 10) == want_linear
        assert borda_aggregate(c2lsh, small_dataset, 5, 10) == want_c2lsh
