"""Golden digests over a small seeded corpus.

Every model below is a pure function of (data, hyperparameters, seed), so
its trees, predictions and replacement draws must stay bit-identical
across refactors. The constants were computed under the v2 draw rule (one
generator per model, breadth-first growth), on trees that equal the loop
reference's (`test_golden_corpus_grows_like_the_loop_reference`); a change
to any of them is a change in behaviour, not in representation.
"""

import hashlib
import json

import numpy as np

from streamforest import (
    BatchForest,
    SplitCriteria,
    StreamForest,
    StreamTree,
    gen_synthetic,
    save_forest,
)

from streamforest.forest import FOREST_CRITERIA

from helpers import loop_fit, loop_forest_update, loop_samples, loop_update, preorder

# Forced, suppressed and free coins in turn, so that replacements happen
# and the history covers all three.
COINS = (True, None, False, True, None, None, True, False, None, None, True)


def _sha(obj) -> str:
    if isinstance(obj, np.ndarray):
        payload = np.ascontiguousarray(obj, dtype="<i8").tobytes()
    else:
        payload = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _preorder(root) -> dict:
    """A tree in preorder through the public node view, as plain lists."""
    out = {"feature": [], "threshold": [], "counts": [], "pre_split_total": [],
           "leaf": []}
    stack = [root]
    while stack:
        node = stack.pop()
        out["leaf"].append(node.is_leaf)
        out["feature"].append(-1 if node.is_leaf else int(node.feature))
        out["threshold"].append(0.0 if node.is_leaf else float(node.threshold).hex())
        out["counts"].append([int(c) for c in node.class_counts])
        out["pre_split_total"].append(int(node.pre_split_total))
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)
    return out


def _history_entry(info) -> dict:
    scores = info["scores"]
    return {"u": float(info["u"]).hex(), "threshold": float(info["threshold"]).hex(),
            "fired": bool(info["fired"]), "replaced": list(info["replaced"]),
            "scores": None if scores is None else [float(s).hex() for s in scores]}


def _forest_digest(forest, probes, tmp_path) -> dict:
    path = tmp_path / "golden.json"
    save_forest(forest, path)
    doc = json.loads(path.read_text())
    return {
        "trees": [hashlib.sha256(json.dumps(t).encode()).hexdigest()
                  for t in doc["trees"]],
        "bulk": _sha(forest.predict(probes)),
        "one": _sha(np.array([forest.predict_one(x) for x in probes[:40]])),
        "nodes": int(forest.node_count()),
    }


def _stream_forest(bootstrap: bool, seed: int):
    """A corpus stream forest before its updates, and its data."""
    data = gen_synthetic("blobs", 900, noise=0.8, seed=seed, n_classes=4,
                         n_features=5)
    forest = StreamForest(data.subset(range(60)), 4, n_trees=12, replace_count=2,
                          seed=seed + 2, bootstrap=bootstrap)
    return forest, data


def _stream_forest_corpus(tmp_path, bootstrap: bool, seed: int) -> dict:
    forest, data = _stream_forest(bootstrap, seed)
    probes = gen_synthetic("blobs", 300, noise=0.8, seed=seed + 1, n_classes=4,
                           n_features=5).features
    history = []
    for i, coin in enumerate(COINS, start=1):
        forest.update(data.subset(range(60 * i, 60 * (i + 1))), force_replacement=coin)
        history.append(_history_entry(forest.last_replacement))
    assert sum(len(h["replaced"]) for h in history) >= 6
    out = _forest_digest(forest, probes, tmp_path)
    out["history"] = _sha(history)
    return out


def _batch_forest_corpus(tmp_path) -> dict:
    data = gen_synthetic("blobs", 400, noise=0.8, seed=31, n_classes=3, n_features=4)
    probes = gen_synthetic("blobs", 200, noise=0.8, seed=32, n_classes=3,
                           n_features=4).features
    forest = BatchForest(6, seed=33).fit(data)
    return _forest_digest(forest, probes, tmp_path)


STREAM_TREE_CRITERIA = SplitCriteria(max_features=2, min_samples_split=3)


def _stream_tree_corpus() -> dict:
    data = gen_synthetic("blobs", 500, noise=1.0, seed=41, n_classes=3, n_features=3)
    probes = gen_synthetic("blobs", 200, noise=1.0, seed=42, n_classes=3,
                           n_features=3).features
    tree = StreamTree(data.subset(range(50)), 3, STREAM_TREE_CRITERIA, seed=43)
    for i in range(1, 10):
        tree.update(data.subset(range(50 * i, 50 * (i + 1))))
    return {
        "tree": _sha(_preorder(tree.root)),
        "bulk": _sha(tree.predict(probes)),
        "one": _sha(np.array([tree.predict_one(x) for x in probes[:40]])),
        "nodes": int(tree.node_count()),
    }


def _corpus(tmp_path) -> dict:
    return {
        "stream_forest": _stream_forest_corpus(tmp_path, bootstrap=True, seed=11),
        "stream_forest_no_bootstrap": _stream_forest_corpus(tmp_path, bootstrap=False,
                                                            seed=21),
        "batch_forest": _batch_forest_corpus(tmp_path),
        "stream_tree": _stream_tree_corpus(),
    }


GOLDEN = {'batch_forest': {'bulk': 'fa68eb07e51f6f76d78c0e41b73a1d374f73f9c4fc80c2370b04179b2ac8662f',
                  'nodes': 406,
                  'one': '8dfddb3aa650be564dcae88d6eec1ffcd9f1bcea4945aa80149baf45243b6e14',
                  'trees': ['b8c9480979c8ebf6325afabfac5ffe28034cba485bbd00ff40755f126781945a',
                            'b2953e5e15d9ca2cc6900d365635d12f2fc3e2707e4837c257cb5f21003c408b',
                            'a660c4aa00baf0045bc42d1d860a355707fd12ea65affdfa58132c61e7b938ac',
                            'a2001fc7b3b955435256b9c3c11f9a42c218858e68f986b1e9806f2fd2d24fac',
                            '833131eba530bffd3af092769249f00ed9b0e15618af451380ab21366f3a5d63',
                            'c8f766bf00602a99a396653ee0655f1d2ab4798c7f8ed16f01828f0e907ee4ee']},
 'stream_forest': {'bulk': '84b0924940e37b499d5dfdbc432d88a1c5972c9ca52248a3459d67cf84637897',
                   'history': '88578aa10b7dce855a5bba61acee96a3634fd05b023954f3bb8d96ee2392ab29',
                   'nodes': 988,
                   'one': 'b11b4e03542abf4375ce2525a87a3d17d00ff71fc0a0284056a499e3b770a7bc',
                   'trees': ['4f768d916c4e96d311de5bf09c7025a080a7889fce205d8c25a54bd41cd17edf',
                             '05c2ec634137b0094fbc604e2080dfaa6bb7b34d0669e2bbc41392a1048be1a0',
                             '1cd578a8d1b1b0852150de332ddfaee1f32ee22a1c03b6fa1d2c662c38ea54b0',
                             '57ebd9e86f6167e9944c990e9d1da3ea2f0ef4498ede4b36441a8acd66eff9c2',
                             '5e21ef80a6b3f919e4abb4cbefd6821aa5e44e636b56f6f672f7cc7cb5799112',
                             'cadccae57d68b8d673edbdf2106943c6b5f38c458ce830fb2b7012fd5645ebf9',
                             'c1b4b9385e722c2a84419530c64698ef30e19b33a9a79e332b4f0c816b2a5be8',
                             '43c850cb98bb0c127bde12671fe01ef3c0dd0896c4ae142c53169b43bfb8d3ca',
                             '1063d009919dd28de6f8df595c9ba1f36cb5de7fe0a881201c5fd71fe1ac516b',
                             '78a25830ccbf620f7cdcc604e360ccfdf680702e8caa488c9a163d817a709080',
                             '7e6a5f355ec5c75513d156a9c47b1997f76d8876750654e4c5701a763c4516ab',
                             '77bc5c481e8616c6036ee056460d4f24ad6a6f07a6f7d93c23ff1846c1846775']},
 'stream_forest_no_bootstrap': {'bulk': '0910337fc6a4d4bc6ffbe9bcdd5fbf484f776eb35abf77aa8fea046dea0dc934',
                                'history': '95d698c5ca3ffa453d16af33c3e4ed7552d7f612db6f4ca682ae37a6da48bfde',
                                'nodes': 1588,
                                'one': 'c9d49199da81d131da19e1e12c1b32c0855c2ae85cbe8ae7b19ecf89763d4bf3',
                                'trees': ['901f7057425ec17679372e18d56d29da027f067a697cb8b8cca1bd031120b07e',
                                          '3d4e4cbff2fe3be91bc28c926d06143c24cb35d51cd2b4264a463ee8e7020b7c',
                                          '95146b5e79c3ddbabff2c78502fbed737159496900a04bcf91404c45d68df660',
                                          '5e0584664b13a7bb3512cdb887e6b335758e32da040b449063a4806795d4f11c',
                                          'f9ddedf3a11545fc7b943a6ecb2849d3fd3c457a2556ed8c844bfe149781ed54',
                                          '314059c0fb7ba247a30c905a1f443596ecbbbcb821aa50b822fccf081fe0814f',
                                          '01128b7ec8c581e196e273016ae3996c950cc1c55e476f3103a88101acc51d2c',
                                          'aaaf491fa4113096584bdbca0c357807a6d3236ea91127a5ecdd3ad57842c608',
                                          '80b6dd44825000e167fad21062bed51ed5342e0442220bcad61e14a0fbb79038',
                                          'd931e6b6fef39ffd76c3e9d141ac2ae388ba8e2759f974263d8510a00cb66820',
                                          'a90a4a1d9bf021725721be0fd94837c7995e32632f570c4d676e7e0d66a8f569',
                                          'f2c83f0c201e292234ef8cb60e274988dc75277366c83412ca4a1b42917bbceb']},
 'stream_tree': {'bulk': 'f8f40200c9f5cc9c0dbcae2743aab7c24d7833e637b5eed4ccb2aafa89697b6a',
                 'nodes': 87,
                 'one': '4a51b62f0b7e05557888a8b4fd928bcfb8cd80e30f5150e0bdab46f7bb7baed2',
                 'tree': '32cb21a91a6126fd5a9fd4439142b6144ccfaf343f23e93b1f91d0f0477cd881'}}


def test_golden_digests(tmp_path):
    assert _corpus(tmp_path) == GOLDEN


def _forest_trees(forest) -> list:
    return [preorder(forest._table.view(root)) for root in forest._roots.tolist()]


def test_golden_corpus_grows_like_the_loop_reference():
    """The digested models equal the v2 loop reference's, so the constants
    above are the reference's as well."""
    for bootstrap, seed in ((True, 11), (False, 21)):
        forest, data = _stream_forest(bootstrap, seed)
        rng = np.random.default_rng(seed + 2)
        roots = loop_fit(data.subset(range(60)), loop_samples(rng, 12, 60, bootstrap),
                         FOREST_CRITERIA, rng)
        for i, coin in enumerate(COINS, start=1):
            batch = data.subset(range(60 * i, 60 * (i + 1)))
            forest.update(batch, force_replacement=coin)
            loop_forest_update(roots, batch, FOREST_CRITERIA, rng, bootstrap, 2, i + 1, coin)
        assert _forest_trees(forest) == [preorder(root) for root in roots]

    data = gen_synthetic("blobs", 400, noise=0.8, seed=31, n_classes=3, n_features=4)
    rng = np.random.default_rng(33)
    roots = loop_fit(data, loop_samples(rng, 6, 400, True), FOREST_CRITERIA, rng)
    assert _forest_trees(BatchForest(6, seed=33).fit(data)) == [preorder(r) for r in roots]

    data = gen_synthetic("blobs", 500, noise=1.0, seed=41, n_classes=3, n_features=3)
    tree = StreamTree(data.subset(range(50)), 3, STREAM_TREE_CRITERIA, seed=43)
    rng = np.random.default_rng(43)
    (root,) = loop_fit(data.subset(range(50)), [np.arange(50)], STREAM_TREE_CRITERIA, rng)
    for i in range(1, 10):
        batch = data.subset(range(50 * i, 50 * (i + 1)))
        tree.update(batch)
        loop_update([root], batch, [np.arange(50)], STREAM_TREE_CRITERIA, rng)
    assert preorder(tree.root) == preorder(root)
