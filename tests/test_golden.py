"""Golden digests over a small seeded corpus.

Every model below is a pure function of (data, hyperparameters, seed), so
its trees, predictions and replacement draws must stay bit-identical
across refactors. The constants were computed before the node table
replaced the per-node object graph; a change to any of them is a change
in behaviour, not in representation.
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


def _stream_forest_corpus(tmp_path, bootstrap: bool, seed: int) -> dict:
    data = gen_synthetic("blobs", 900, noise=0.8, seed=seed, n_classes=4,
                         n_features=5)
    probes = gen_synthetic("blobs", 300, noise=0.8, seed=seed + 1, n_classes=4,
                           n_features=5).features
    forest = StreamForest(data.subset(range(60)), 4, n_trees=12, replace_count=2,
                          seed=seed + 2, bootstrap=bootstrap)
    history = []
    # Forced, suppressed and free coins in turn, so that replacements
    # happen and the history covers all three.
    coins = (True, None, False, True, None, None, True, False, None, None, True)
    for i, coin in enumerate(coins, start=1):
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


def _stream_tree_corpus() -> dict:
    data = gen_synthetic("blobs", 500, noise=1.0, seed=41, n_classes=3, n_features=3)
    probes = gen_synthetic("blobs", 200, noise=1.0, seed=42, n_classes=3,
                           n_features=3).features
    tree = StreamTree(data.subset(range(50)), 3,
                      SplitCriteria(max_features=2, min_samples_split=3), seed=43)
    for i in range(1, 10):
        tree.update(data.subset(range(50 * i, 50 * (i + 1))))
    return {
        "tree": _sha(_preorder(tree.tree.root)),
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


GOLDEN = {'batch_forest': {'bulk': 'e1bb91f7fe8ce3afa88a722b39cce71809d17542db3316ef0e1aacda37dc9973',
                  'nodes': 428,
                  'one': 'b6e27bb33518f3926445a71656bceb4f7e80b53de196361a727bf7156d3b556d',
                  'trees': ['29f429276324772d94dd92fa9048e38990605d376f3970bcb07fd65cd65190ae',
                            'c4339ebd9254562d00e1cdac829f8b70eec66635d7e7af58b2046e251c731178',
                            '3b3f2303c01111737338dd084c1a879b3a4f03c853a1cd2f8d0a63a4bd7f5356',
                            '979e9f9c634ab3011a4de66db90832d12e61065f378d2e429eb47126d0d4b47b',
                            '043f88ed591323bcf2590dea8361d54685fef03e0f18a3007a8ce42d491ae46d',
                            '64330d3b4c5c732693ce55c211a0ba680f2308bd8f9166cdbd1cc3e0df562502']},
 'stream_forest': {'bulk': '933eed5693b09322645d2b6234ff97c38530d43ff592bcbe680bf991b4cf5fda',
                   'history': '08e03374dc7f84b2c5950f1e18e99de92ce91500cf653a9e4e618a7ef94f7a9d',
                   'nodes': 996,
                   'one': 'fe9228bdf2367d6241690b277f11dae4d585e78a1305abcd467b9f8152116746',
                   'trees': ['c1027e7305797c76db1f0cba6cbadfe98b6c7b0336ac7555c3b53023a318315a',
                             '20cce0f3f23ab830a4fa3e68d62083839246d990c836753ad09555d3f8897e22',
                             '42331b52915b09bb0b3096f75bc5132fb7753c5f5774dfc63a8b5583eacac7c5',
                             '922ccecd11ef3097826578a0a047b9e2718248f11a06fb1cafed626d409eaef0',
                             'b3e9d498364cd875c2704e8317c3109202bafd0c668f76afb94e39c3e4b674d6',
                             '3d2f6c23290718ed5b7403375d21f7bba5551d329edf276cec669dd3e92b2e5b',
                             'a927fa7cb77d1d97364cc4a683b29ddd40cdecc54a37247c2ee6b52f5e27a116',
                             '268712c27920cd6c4746a79ba60f26905dd129b9034c264410afe0556e2fef32',
                             '661f562197a6f9e798f0d8fe5adea2bce4793c7a60e66cf869f4e6f63214c9df',
                             '434e63ddab54cbe56a36e37dc03d39b42f75a03827d42df5141d7a66d9303f45',
                             '0352901acd3a028d682001298533e3cbb21d13d64a0b84e24ffafa036e5d05da',
                             '12120acd625ea00de4d26b28fa837b61dd2fffd72c100d4aef3bd891b0589c62']},
 'stream_forest_no_bootstrap': {'bulk': 'ff36293943b1f8ccdfba2954f2a255f77f36370d4a1ac042768b202356bd7912',
                                'history': '51a1950fafb551d09c428a2b8520fcc4876536a26c8d6f12d580361cfea5af9b',
                                'nodes': 1716,
                                'one': 'cc314f69cbdce3060d76b6d22b9eff757831f983c64ecbedea25eda3001c80e0',
                                'trees': ['a83234ffc05b2fc707fa76e3c28dad8924974007c13ffe209515aa7567b18073',
                                          'e34a374770b4e97ccf128bf193aba7448d528fcb56429fed2e3565b110e56fc4',
                                          'f0fbf31767052dc38b22adf02c6a4d94b7147dc074b8693e81a01724254e2e78',
                                          'd595e0b39b09f48826ea8e8bc761b470c794e3f4bab6bb5a82216f5fcab34ee5',
                                          '2b2608a23be9fd1a214e10884262d1f9e0e81cc0ec822fc0a2b6537f02395743',
                                          'b188dde7a15a1015dec773008219fe5f8b26c9b05d3aab4e2e659ce388e619b6',
                                          'c25dea3be2995e7d7d44c3e707aea8c38cc8dc6712296b253040bac3a91e8853',
                                          'fba0a08a67640041508487612b174b0f6391933ed6a821325cb14a1a677a0447',
                                          '23b668ff0aa93d8752506de7867c7e12cde54b80122cdb31cfee7f279d3f5ca9',
                                          '65ef276debea84afb51ce200f6bd193ee3cc202ac49419ebd56a5b1c16f21fcf',
                                          '6100a0d3a203985185121630b5061796acab5c0d57b55edb6bb173ebb29a6a0d',
                                          '05be050c565a25ce175102ac0186b8b45b7e3037c90be46e902e64d1314c1f54']},
 'stream_tree': {'bulk': 'c654edb2931a71166b656716ff3a04c7b0813a1acbf638f0ca8b73dd4e9af496',
                 'nodes': 93,
                 'one': 'aab76025ad69b8ac18746feff39606293da77240244ab1fd3c2283b760603c97',
                 'tree': '84d68e83f4170934bf046f71e9505fdace80dbceb3e46d1221ada0ced9d632e5'}}


def test_golden_digests(tmp_path):
    assert _corpus(tmp_path) == GOLDEN
