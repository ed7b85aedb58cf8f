"""Identity corpus: digests of all four models over a grid of data and split
rules.

A model is a pure function of (data, hyperparameters, seed), so a change
that only rewrites how trees are grown, stored or read must leave every
digest below unchanged. Each cell of the grid is one data kind (blobs,
xor, concentric), one feature shape (2 features; 7 rounded to one
decimal, so that values tie; 60), one `max_features` rule, one
`min_impurity_decrease` and, for the forests, bootstrap on or off. Per
model and cell the corpus digests the exported node table (a stream
model's also as first built), the bulk and one-row predictions, the
generator's state and, for a stream forest, the history of its
replacement draws, whose coins are forced, suppressed and drawn in turn.
A mismatch names the model, the cell and the field.

A change to the table is a change in behaviour. To print the table the
code computes now, run ``PYTHONPATH=src python tests/test_identity.py``.
"""

import hashlib
import itertools
import json
import sys

import numpy as np
import pytest

from streamforest import (
    BatchForest,
    Dataset,
    DecisionTree,
    SplitCriteria,
    StreamForest,
    StreamTree,
    gen_synthetic,
)

KINDS = ("blobs", "xor", "concentric")
SHAPES = ("p2", "p7r", "p60")
RULES = ("all", "sqrt", 2)
DECREASES = (0.0, 0.01)
FIRST, BATCH, UPDATES, PROBES = 60, 40, 3, 50
# Forced, suppressed and drawn coins, one per update.
COINS = (True, False, None)
MODELS = ("dt", "sdt", "bf", "sdf")


def _cells(model: str):
    """(name, kind, shape, rule, decrease, bootstrap, seed) of each cell of
    `model`; trees take no bootstrap."""
    boots = (True, False) if model in ("bf", "sdf") else (False,)
    for seed, (kind, shape, rule, decrease, boot) in enumerate(
            itertools.product(KINDS, SHAPES, RULES, DECREASES, boots)):
        name = f"{kind} {shape} {rule} mid={decrease}" + (
            f" boot={int(boot)}" if model in ("bf", "sdf") else "")
        yield name, kind, shape, rule, decrease, boot, seed


def _data(kind: str, shape: str, seed: int) -> Dataset:
    p = {"p2": 2, "p7r": 7, "p60": 60}[shape]
    data = gen_synthetic(kind, FIRST + UPDATES * BATCH + PROBES, noise=0.5, seed=seed,
                         n_features=p)
    if shape == "p7r":
        data = Dataset(np.round(data.features, 1), data.labels, data.n_classes)
    return data


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:12]


def _table(model) -> str:
    columns = model._table.export(model._roots)
    return _sha(b"".join(np.ascontiguousarray(columns[name]).tobytes()
                         for name in ("feature", "threshold", "left", "counts")))


def _predictions(model, probes: np.ndarray) -> str:
    one = [model.predict_one(x) for x in probes[:10]]
    return _sha(np.asarray(model.predict(probes), dtype="<i8").tobytes()
                + np.asarray(one, dtype="<i8").tobytes())


def _state(rng: np.random.Generator) -> str:
    return _sha(json.dumps(rng.bit_generator.state, sort_keys=True).encode())


def _history_entry(info) -> dict:
    scores = info["scores"]
    return {"u": float(info["u"]).hex(), "threshold": float(info["threshold"]).hex(),
            "fired": bool(info["fired"]), "replaced": list(info["replaced"]),
            "scores": None if scores is None else [float(s).hex() for s in scores]}


def _digest(model_name: str, kind, shape, rule, decrease, boot, seed) -> dict:
    """The fields of one model in one cell."""
    data = _data(kind, shape, seed)
    k = data.n_classes
    train = data.subset(range(FIRST + UPDATES * BATCH))
    probes = data.features[-PROBES:]
    batches = [data.subset(range(FIRST + i * BATCH, FIRST + (i + 1) * BATCH))
               for i in range(UPDATES)]
    criteria = SplitCriteria(max_features=rule, min_impurity_decrease=decrease)
    out = {}
    if model_name == "dt":
        model = DecisionTree(criteria, seed=seed).fit(train)
    elif model_name == "bf":
        model = BatchForest(4, criteria, seed=seed, bootstrap=boot).fit(train)
    elif model_name == "sdt":
        model = StreamTree(data.subset(range(FIRST)), k, criteria, seed=seed)
        out["built"] = _table(model)
        for batch in batches:
            model.update(batch)
    else:
        model = StreamForest(data.subset(range(FIRST)), k, n_trees=4, replace_count=2,
                             criteria=criteria, seed=seed, bootstrap=boot)
        out["built"] = _table(model)  # replacements may drop these trees
        history = []
        for batch, coin in zip(batches, COINS):
            model.update(batch, force_replacement=coin)
            history.append(_history_entry(model.last_replacement))
        out["history"] = _sha(json.dumps(history, sort_keys=True).encode())
    out["table"] = _table(model)
    out["predict"] = _predictions(model, probes)
    if model_name != "bf":  # a batch forest keeps no generator
        out["rng"] = _state(model.rng)
    return out


def _line(model: str, name: str, fields: dict) -> str:
    return " ".join([model, name.replace(" ", "/")]
                    + [f"{f}={d}" for f, d in sorted(fields.items())])


def _parse(table: str) -> dict:
    """{(model, cell name): {field: digest}} from lines as `_line` writes them."""
    out = {}
    for line in table.split("\n"):
        if line.strip():
            model, name, *fields = line.split()
            out[model, name.replace("/", " ")] = dict(f.split("=", 1) for f in fields)
    return out


@pytest.mark.parametrize("model", MODELS)
def test_identity_digests(model):
    expected = _parse(DIGESTS)
    mismatches = []
    cells = 0
    for cell in _cells(model):
        cells += 1
        got = _digest(model, *cell[1:])
        want = expected.get((model, cell[0]), {})
        for field in sorted(set(got) | set(want)):
            if got.get(field) != want.get(field):
                mismatches.append(f"{model} [{cell[0]}] {field}: "
                                  f"{want.get(field)} -> {got.get(field)}")
    assert cells == sum(1 for key in expected if key[0] == model)
    assert not mismatches, "\n".join(mismatches)


DIGESTS = """
dt blobs/p2/all/mid=0.0 predict=8c335eacaa1b rng=96302b4281ad table=b8d7ad41dbc1
dt blobs/p2/all/mid=0.01 predict=f6020e65d35f rng=7e62aff6a05e table=684531d853dd
dt blobs/p2/sqrt/mid=0.0 predict=9a2fb29529d4 rng=46e2c8e1d8ce table=90f546b44c20
dt blobs/p2/sqrt/mid=0.01 predict=c6bceb6e80e9 rng=838ebf96fd3f table=85b1dcc9ae29
dt blobs/p2/2/mid=0.0 predict=365dbc665f5e rng=9033e41ba3c6 table=2f4be5492113
dt blobs/p2/2/mid=0.01 predict=4c0797c26224 rng=567a40f361e0 table=d2bb56db89f2
dt blobs/p7r/all/mid=0.0 predict=ef5dce969509 rng=651e4756411f table=2d871ac65f6b
dt blobs/p7r/all/mid=0.01 predict=77228acd6b30 rng=2632de069beb table=99a9b60cdef5
dt blobs/p7r/sqrt/mid=0.0 predict=8ab422a97bc5 rng=9c66c3680268 table=3bace8908cad
dt blobs/p7r/sqrt/mid=0.01 predict=bec1fb2a0265 rng=b58443fcb515 table=f92e7c6ecff2
dt blobs/p7r/2/mid=0.0 predict=4ad86bd7bc6e rng=85a022335bc8 table=7f1355ea35c6
dt blobs/p7r/2/mid=0.01 predict=49f0cfe69237 rng=415bc955a3a3 table=dc4800f9d018
dt blobs/p60/all/mid=0.0 predict=7b67a0e133dc rng=558d706c6e78 table=f3414b671623
dt blobs/p60/all/mid=0.01 predict=a1aa913e9606 rng=557a043bc261 table=b410b072465e
dt blobs/p60/sqrt/mid=0.0 predict=28d69641aa90 rng=9510a1e770b8 table=944aa45b8827
dt blobs/p60/sqrt/mid=0.01 predict=45e5d434bd9e rng=3be52270dc44 table=aa92cf8a094f
dt blobs/p60/2/mid=0.0 predict=345b322efa70 rng=1a8942dc7999 table=df7ce3af1d1f
dt blobs/p60/2/mid=0.01 predict=8045bdd57228 rng=a23550e5ca56 table=9f2affcabede
dt xor/p2/all/mid=0.0 predict=a2b16f6fb946 rng=e0ba06505ec8 table=ddacf91d9eb5
dt xor/p2/all/mid=0.01 predict=82c0a80ad1ea rng=0384d8929085 table=c633258dcd05
dt xor/p2/sqrt/mid=0.0 predict=c26320092f48 rng=8700ad8ea88e table=b82ef63f1bfe
dt xor/p2/sqrt/mid=0.01 predict=4b48f21a4b7a rng=1b2da87e3b47 table=a8eec8fe3e3d
dt xor/p2/2/mid=0.0 predict=fee074af376b rng=8eaae82db2ac table=338511cb48dc
dt xor/p2/2/mid=0.01 predict=31ff4913c536 rng=71bf22689382 table=4e9c44d16b25
dt xor/p7r/all/mid=0.0 predict=ffbda23fb367 rng=7586fa2ce1bf table=10a5311d2432
dt xor/p7r/all/mid=0.01 predict=b8fafbbd2d9a rng=3c62a8f436a3 table=1286ce28a098
dt xor/p7r/sqrt/mid=0.0 predict=78badaefa90b rng=708db95fb32a table=2a9a3754d864
dt xor/p7r/sqrt/mid=0.01 predict=4b48f21a4b7a rng=8f253b72c8b2 table=407e43add509
dt xor/p7r/2/mid=0.0 predict=1b1eafba20c8 rng=bcb6584e2c27 table=f0bd8caa0cf6
dt xor/p7r/2/mid=0.01 predict=f9dd4ea5781c rng=ee49004425c4 table=a028e89f9af8
dt xor/p60/all/mid=0.0 predict=70c556a94ad4 rng=75db32176a43 table=3b617010001c
dt xor/p60/all/mid=0.01 predict=45ce4a36e5d3 rng=a70e2614f883 table=a71d85ac9bb1
dt xor/p60/sqrt/mid=0.0 predict=84ddf71f0ef6 rng=506d23c3aa70 table=8dd020de8cbf
dt xor/p60/sqrt/mid=0.01 predict=25202e56670c rng=883b9b48dc36 table=e5d2c15fbc67
dt xor/p60/2/mid=0.0 predict=87fba09433f4 rng=d1bca8241f4d table=158acf202569
dt xor/p60/2/mid=0.01 predict=4f4179864418 rng=ef7dfa9e8865 table=609c8b6f62c1
dt concentric/p2/all/mid=0.0 predict=68367d37707e rng=add6eb9d0cb0 table=2c652192fc9b
dt concentric/p2/all/mid=0.01 predict=4c18e2af539f rng=7895cfc858a7 table=18c30d36c7e8
dt concentric/p2/sqrt/mid=0.0 predict=054b524caccf rng=44339c5570a3 table=b2015a68626f
dt concentric/p2/sqrt/mid=0.01 predict=92c9121b68e6 rng=19ba0d17d3d8 table=16fd088ca18c
dt concentric/p2/2/mid=0.0 predict=644420897b16 rng=1cf1734456bf table=89c838bff79e
dt concentric/p2/2/mid=0.01 predict=d3840f200033 rng=4112a055bec8 table=a5724f9147b1
dt concentric/p7r/all/mid=0.0 predict=098e0a788191 rng=d029b3718fc4 table=d00733b6ac75
dt concentric/p7r/all/mid=0.01 predict=e0e31ce89ef3 rng=1c034b210a4a table=2e62b534f000
dt concentric/p7r/sqrt/mid=0.0 predict=4f6ecb9e822e rng=356a8f753bcf table=415e47fffc50
dt concentric/p7r/sqrt/mid=0.01 predict=5eadda7d5b79 rng=9b2ec232e480 table=b5838a179eab
dt concentric/p7r/2/mid=0.0 predict=550739351bd3 rng=0c3e7eafee67 table=720f96d594b1
dt concentric/p7r/2/mid=0.01 predict=4a7cacd2c12f rng=32b6d1778839 table=f6a6db1fc26d
dt concentric/p60/all/mid=0.0 predict=e7133d6a53c0 rng=84da29bf67e5 table=c95d4da41d3b
dt concentric/p60/all/mid=0.01 predict=f8f8905f6544 rng=9fa147813a8c table=18784b1f580c
dt concentric/p60/sqrt/mid=0.0 predict=7630ce9ec919 rng=73e8bbe07a16 table=072a4cb5a413
dt concentric/p60/sqrt/mid=0.01 predict=817e6fac478e rng=8651fdc0a27c table=007b3390c990
dt concentric/p60/2/mid=0.0 predict=118014bc2120 rng=395feff09a87 table=0e116dc69e15
dt concentric/p60/2/mid=0.01 predict=79b538869856 rng=476f9260968e table=c3f03499c737
sdt blobs/p2/all/mid=0.0 built=7385b03095a2 predict=e574ebfcac49 rng=96302b4281ad table=83f286dd90e8
sdt blobs/p2/all/mid=0.01 built=ea494310d859 predict=b8fc6703452e rng=7e62aff6a05e table=26bdaa4f1392
sdt blobs/p2/sqrt/mid=0.0 built=b247c9e32083 predict=cf255e5d651f rng=77ea3dd08afa table=86cc8b0fa924
sdt blobs/p2/sqrt/mid=0.01 built=b897b9a62c41 predict=1a56fc9a9e87 rng=ec25e51c03c6 table=613cd5f92719
sdt blobs/p2/2/mid=0.0 built=6faf11eec1f3 predict=f129a33a8377 rng=9033e41ba3c6 table=eb52cafbd9ec
sdt blobs/p2/2/mid=0.01 built=bd882c4d1e6b predict=8f3fc14a458a rng=567a40f361e0 table=55c28c350f71
sdt blobs/p7r/all/mid=0.0 built=da66a411dc69 predict=105a4c5fd68c rng=651e4756411f table=b6dadbdbe92b
sdt blobs/p7r/all/mid=0.01 built=3a43df57489d predict=77228acd6b30 rng=2632de069beb table=08a177e319b3
sdt blobs/p7r/sqrt/mid=0.0 built=a76c9fb2adec predict=9ff98d021a90 rng=d95d84460ace table=4d1706e521cf
sdt blobs/p7r/sqrt/mid=0.01 built=049bf55c0ca4 predict=5d09714ae7d6 rng=5dfbfd831995 table=8b9b9c8d8741
sdt blobs/p7r/2/mid=0.0 built=147da8706c35 predict=c1c186ff2b31 rng=f86538e9b397 table=a9d7bec34874
sdt blobs/p7r/2/mid=0.01 built=cc3d6a4c5552 predict=cfcb5ea50cf2 rng=3290d5ad64dd table=f1d653bb3e87
sdt blobs/p60/all/mid=0.0 built=61604bf2668f predict=7f65ee920824 rng=558d706c6e78 table=11b95e0b3cae
sdt blobs/p60/all/mid=0.01 built=0471f37a1d81 predict=c61132365ab2 rng=557a043bc261 table=a18fef3fad11
sdt blobs/p60/sqrt/mid=0.0 built=3f2a3da6bfb5 predict=0c163351c2b2 rng=29338feaf372 table=5bcf208a27a3
sdt blobs/p60/sqrt/mid=0.01 built=e2a99a96c670 predict=195987a32bd7 rng=11d0165a9a76 table=0f7bb548cc0c
sdt blobs/p60/2/mid=0.0 built=44b4910627de predict=d149727550d8 rng=4f7e95203ca7 table=84f6d1855e85
sdt blobs/p60/2/mid=0.01 built=738f12cf1b7a predict=64c512607173 rng=6c24f7d3fa9a table=cddbd02aba74
sdt xor/p2/all/mid=0.0 built=765b8f9f17f9 predict=a6919e078d7b rng=e0ba06505ec8 table=6801f6b88101
sdt xor/p2/all/mid=0.01 built=4501d44b9c73 predict=015ab581c48a rng=0384d8929085 table=7d0fe61ccabe
sdt xor/p2/sqrt/mid=0.0 built=e717fede94b8 predict=d3302a44c196 rng=cbe5a5166ce9 table=8e3ac246c2a4
sdt xor/p2/sqrt/mid=0.01 built=d8f6dcaaaac5 predict=decf4c382730 rng=6c8c9161263f table=0a27e4a12509
sdt xor/p2/2/mid=0.0 built=8fa45590ec42 predict=f3fc19ea8c52 rng=8eaae82db2ac table=ee8f0597f3c9
sdt xor/p2/2/mid=0.01 built=a404ca4b75fe predict=b35a7b1508dd rng=71bf22689382 table=583ae655ab2e
sdt xor/p7r/all/mid=0.0 built=8f956fb4a722 predict=f8c089da6164 rng=7586fa2ce1bf table=f89d3c8dcfb1
sdt xor/p7r/all/mid=0.01 built=739ef77e6538 predict=b5145603b11a rng=3c62a8f436a3 table=d491dd07efb1
sdt xor/p7r/sqrt/mid=0.0 built=ef2bb0d99875 predict=5f43750d9aa5 rng=e98db5858dc4 table=3028a07b6364
sdt xor/p7r/sqrt/mid=0.01 built=06592fbb534b predict=3186a718575f rng=4427c274d109 table=6d95bb1a69ea
sdt xor/p7r/2/mid=0.0 built=fefbe1c1fd2d predict=5f3f3a385c24 rng=eacf4895231a table=564c5cca28dd
sdt xor/p7r/2/mid=0.01 built=840f8a043e05 predict=e1368ca7ce52 rng=93cebc9c213b table=67ddf6de9686
sdt xor/p60/all/mid=0.0 built=29949d6ede55 predict=2abea08af730 rng=75db32176a43 table=bffdd011d742
sdt xor/p60/all/mid=0.01 built=c61a7c148c09 predict=d4c737f00bbb rng=a70e2614f883 table=328708776b72
sdt xor/p60/sqrt/mid=0.0 built=00f04cc45c25 predict=22e3bb883549 rng=68a048b45eda table=3184f589def3
sdt xor/p60/sqrt/mid=0.01 built=4bf2fab91963 predict=6f366015e068 rng=a1c12121e797 table=97fce2b72703
sdt xor/p60/2/mid=0.0 built=7041bcde518b predict=e7913a72c827 rng=36ee6fea9c8d table=e820e04704cf
sdt xor/p60/2/mid=0.01 built=165afabe5c9e predict=37dbc3d3dd6a rng=4815918bbdf9 table=8af83e6ec75c
sdt concentric/p2/all/mid=0.0 built=8a75bae88b1b predict=8cb253682977 rng=add6eb9d0cb0 table=94a534e99dd1
sdt concentric/p2/all/mid=0.01 built=700dc4c91e0c predict=ad5e55aa367c rng=7895cfc858a7 table=e30921cf801a
sdt concentric/p2/sqrt/mid=0.0 built=07c7af2ddc15 predict=815677dbb8da rng=5ecf77661829 table=3ad0c887dc33
sdt concentric/p2/sqrt/mid=0.01 built=9ab810b934b8 predict=ed4e7509f303 rng=83dad8a06858 table=cd8e8c0db990
sdt concentric/p2/2/mid=0.0 built=1241c5b3fcfb predict=5c589f6a4634 rng=1cf1734456bf table=312f5d3d301b
sdt concentric/p2/2/mid=0.01 built=251a3bfbe1d1 predict=ecc406c7fdc6 rng=4112a055bec8 table=a59c5d2cc344
sdt concentric/p7r/all/mid=0.0 built=3cb3c679bb8a predict=44babcec2d2e rng=d029b3718fc4 table=0e60243a8da9
sdt concentric/p7r/all/mid=0.01 built=5e54eb987bd8 predict=cb5f99c13919 rng=1c034b210a4a table=787a9508258c
sdt concentric/p7r/sqrt/mid=0.0 built=b286e35922c8 predict=b0248469f8ec rng=a10a9cbb6bf0 table=658aa89f818e
sdt concentric/p7r/sqrt/mid=0.01 built=aa081c24c866 predict=96b12ef9fd7e rng=411cd73761c0 table=b42a0e20bbab
sdt concentric/p7r/2/mid=0.0 built=c127c43c3ac0 predict=efb50ccc897a rng=2d650adebe1b table=cd6493732c23
sdt concentric/p7r/2/mid=0.01 built=62a144927139 predict=c12118591d40 rng=07b131e3d087 table=d2e8451b9cde
sdt concentric/p60/all/mid=0.0 built=5651501a65a5 predict=d4e6a586ff1a rng=84da29bf67e5 table=b5d57bd214cb
sdt concentric/p60/all/mid=0.01 built=f91ce54aa883 predict=907746e0b628 rng=9fa147813a8c table=f4ae4bc46667
sdt concentric/p60/sqrt/mid=0.0 built=a6d6c06615ab predict=eba49e9c9b9a rng=b8be40211434 table=a84de6e2e1ea
sdt concentric/p60/sqrt/mid=0.01 built=07a2ef464e39 predict=c38794f4e049 rng=963ba9025158 table=c453154dc0bb
sdt concentric/p60/2/mid=0.0 built=f47236c07ca2 predict=c4690023e3fa rng=de66ce245a12 table=c62b820ff0c4
sdt concentric/p60/2/mid=0.01 built=ac782969c523 predict=68a8a15c6c63 rng=a001f9b24c2e table=51b66e60dbe2
bf blobs/p2/all/mid=0.0/boot=1 predict=8c335eacaa1b table=6b93fdd29366
bf blobs/p2/all/mid=0.0/boot=0 predict=e103f2557e8c table=eaa54f3726a6
bf blobs/p2/all/mid=0.01/boot=1 predict=f1563dfe4ebd table=9d27c3d4f1f0
bf blobs/p2/all/mid=0.01/boot=0 predict=b7eefa981764 table=908fb441a9d2
bf blobs/p2/sqrt/mid=0.0/boot=1 predict=21513473660e table=d57428b0de9d
bf blobs/p2/sqrt/mid=0.0/boot=0 predict=4c0797c26224 table=1313086b5ea5
bf blobs/p2/sqrt/mid=0.01/boot=1 predict=f0bacf46a70b table=f680f6f06ac2
bf blobs/p2/sqrt/mid=0.01/boot=0 predict=b7fe9e1628f0 table=dac944e35200
bf blobs/p2/2/mid=0.0/boot=1 predict=ba7866671ce5 table=6bafc3055000
bf blobs/p2/2/mid=0.0/boot=0 predict=92898942c391 table=2b797c07afd6
bf blobs/p2/2/mid=0.01/boot=1 predict=bcc419790020 table=91cd7cfcaabb
bf blobs/p2/2/mid=0.01/boot=0 predict=2e402657950e table=e11453a9f136
bf blobs/p7r/all/mid=0.0/boot=1 predict=49abc517a264 table=9e6f6daa2a8a
bf blobs/p7r/all/mid=0.0/boot=0 predict=1c32ccf1bec1 table=18c4b1d24ba1
bf blobs/p7r/all/mid=0.01/boot=1 predict=a9f56dc0302b table=7b99f268f997
bf blobs/p7r/all/mid=0.01/boot=0 predict=4b010185926b table=39878b4f9746
bf blobs/p7r/sqrt/mid=0.0/boot=1 predict=beae8cec4794 table=72c0e76f8953
bf blobs/p7r/sqrt/mid=0.0/boot=0 predict=2349659c8c20 table=3a3c3d2903b4
bf blobs/p7r/sqrt/mid=0.01/boot=1 predict=0676fce314dc table=87c8ffb7b80d
bf blobs/p7r/sqrt/mid=0.01/boot=0 predict=8c1b1e1533b2 table=3290112d30a2
bf blobs/p7r/2/mid=0.0/boot=1 predict=d786392b5e2f table=382b42109ac2
bf blobs/p7r/2/mid=0.0/boot=0 predict=878a152adf45 table=b2e7105fdc16
bf blobs/p7r/2/mid=0.01/boot=1 predict=e4e2a88f032e table=5b2b7abc02f2
bf blobs/p7r/2/mid=0.01/boot=0 predict=b41daf0a2f10 table=66c1acfa9897
bf blobs/p60/all/mid=0.0/boot=1 predict=e624dc05f312 table=21793741c5e5
bf blobs/p60/all/mid=0.0/boot=0 predict=967d531a03bb table=4ba41938fdd7
bf blobs/p60/all/mid=0.01/boot=1 predict=f5c3ef9484fc table=45d477ca82bd
bf blobs/p60/all/mid=0.01/boot=0 predict=7da9352c50cf table=6815fd3cab80
bf blobs/p60/sqrt/mid=0.0/boot=1 predict=45eade293144 table=10de1c5c5aa0
bf blobs/p60/sqrt/mid=0.0/boot=0 predict=020b69c238af table=b0ef105a9b50
bf blobs/p60/sqrt/mid=0.01/boot=1 predict=d7831258c2a4 table=5465b7230e36
bf blobs/p60/sqrt/mid=0.01/boot=0 predict=6983cf38db48 table=1dfd4ba33eaf
bf blobs/p60/2/mid=0.0/boot=1 predict=d0b206cbfb5c table=64c98cf19b55
bf blobs/p60/2/mid=0.0/boot=0 predict=a2ce1e88cae6 table=5bc129eee85e
bf blobs/p60/2/mid=0.01/boot=1 predict=dd61ff9fd3c0 table=e32b9cfc7775
bf blobs/p60/2/mid=0.01/boot=0 predict=899e9eb0dd63 table=5eff50b5a8f8
bf xor/p2/all/mid=0.0/boot=1 predict=2c960d282527 table=23405f8a3244
bf xor/p2/all/mid=0.0/boot=0 predict=5d6846b9acea table=edacac6f0d2d
bf xor/p2/all/mid=0.01/boot=1 predict=6e9448377940 table=e829fbe63983
bf xor/p2/all/mid=0.01/boot=0 predict=4b48f21a4b7a table=908d55f09e72
bf xor/p2/sqrt/mid=0.0/boot=1 predict=2cdff36b7221 table=fd571a2a9f4c
bf xor/p2/sqrt/mid=0.0/boot=0 predict=5382c649c0b7 table=817f7e96226f
bf xor/p2/sqrt/mid=0.01/boot=1 predict=68ec7fe98a2b table=bffcd647e07f
bf xor/p2/sqrt/mid=0.01/boot=0 predict=82c0a80ad1ea table=e79347754692
bf xor/p2/2/mid=0.0/boot=1 predict=18be066dfebf table=0bf8151d615f
bf xor/p2/2/mid=0.0/boot=0 predict=e40bc149c257 table=8ca46708f75e
bf xor/p2/2/mid=0.01/boot=1 predict=f9fc7b0a1b7d table=85a00e36b736
bf xor/p2/2/mid=0.01/boot=0 predict=4b48f21a4b7a table=5f83c599f902
bf xor/p7r/all/mid=0.0/boot=1 predict=ccc2928ef7dc table=e0984a5fd5b0
bf xor/p7r/all/mid=0.0/boot=0 predict=ab7db8fc984e table=129f27ae7de6
bf xor/p7r/all/mid=0.01/boot=1 predict=d62868ca75af table=070c8351bb56
bf xor/p7r/all/mid=0.01/boot=0 predict=7f9f0879889b table=370a5cecef2f
bf xor/p7r/sqrt/mid=0.0/boot=1 predict=586f11cfce48 table=663b113ca7ca
bf xor/p7r/sqrt/mid=0.0/boot=0 predict=b5c159f03159 table=2a43265470d3
bf xor/p7r/sqrt/mid=0.01/boot=1 predict=fcf3f02596a9 table=af2c2744798b
bf xor/p7r/sqrt/mid=0.01/boot=0 predict=4b48f21a4b7a table=d482e43d16f0
bf xor/p7r/2/mid=0.0/boot=1 predict=3b8325b937d2 table=700cf4c78cfe
bf xor/p7r/2/mid=0.0/boot=0 predict=db32b9b79454 table=80c018d8ed44
bf xor/p7r/2/mid=0.01/boot=1 predict=e662a7180da2 table=2d62677d6205
bf xor/p7r/2/mid=0.01/boot=0 predict=0ba58f30bd5b table=5ae98203df1d
bf xor/p60/all/mid=0.0/boot=1 predict=91ecf401fe64 table=2b9c118fc57a
bf xor/p60/all/mid=0.0/boot=0 predict=fe7debfabba8 table=361f8299cba3
bf xor/p60/all/mid=0.01/boot=1 predict=a622a871fd5c table=bd60173cbc0b
bf xor/p60/all/mid=0.01/boot=0 predict=f959844450de table=4250e1b45110
bf xor/p60/sqrt/mid=0.0/boot=1 predict=c59b9b131e1b table=380705ef3fd5
bf xor/p60/sqrt/mid=0.0/boot=0 predict=52eea5e5f730 table=7824519692f3
bf xor/p60/sqrt/mid=0.01/boot=1 predict=f5eaaf3ecce7 table=1c9c9dab6aba
bf xor/p60/sqrt/mid=0.01/boot=0 predict=5946c48da6d6 table=187c45646d96
bf xor/p60/2/mid=0.0/boot=1 predict=0c2efb7d6184 table=2cde282b2a01
bf xor/p60/2/mid=0.0/boot=0 predict=21f5cf30710a table=6e348c630070
bf xor/p60/2/mid=0.01/boot=1 predict=0ef58a77f19f table=a58e298b78c3
bf xor/p60/2/mid=0.01/boot=0 predict=6ceb2c04e5c0 table=155e3ea8f100
bf concentric/p2/all/mid=0.0/boot=1 predict=2ce3b635f066 table=544528ccdbf4
bf concentric/p2/all/mid=0.0/boot=0 predict=92e5209d1eb7 table=2f415446c105
bf concentric/p2/all/mid=0.01/boot=1 predict=f85db4dbab89 table=0bab76665ae5
bf concentric/p2/all/mid=0.01/boot=0 predict=08edcabd80b8 table=1242fff51444
bf concentric/p2/sqrt/mid=0.0/boot=1 predict=0fa50397ab89 table=7113ac909ae2
bf concentric/p2/sqrt/mid=0.0/boot=0 predict=eb15ec30be3d table=2351e2a83fc2
bf concentric/p2/sqrt/mid=0.01/boot=1 predict=34c9b867b472 table=2f43b2c14f23
bf concentric/p2/sqrt/mid=0.01/boot=0 predict=e914034b10d8 table=cf95a15774de
bf concentric/p2/2/mid=0.0/boot=1 predict=23b7290376f3 table=64c2efc78709
bf concentric/p2/2/mid=0.0/boot=0 predict=a2b2f5716d97 table=e305bfbb9a5f
bf concentric/p2/2/mid=0.01/boot=1 predict=8e3d4ac9fc71 table=ce6a4b37d5d3
bf concentric/p2/2/mid=0.01/boot=0 predict=07aa4cc61cf3 table=c943c0c4152a
bf concentric/p7r/all/mid=0.0/boot=1 predict=684792b85b4d table=486bfb2c8bd6
bf concentric/p7r/all/mid=0.0/boot=0 predict=739dc42a5329 table=8613b3a127f8
bf concentric/p7r/all/mid=0.01/boot=1 predict=0df78d5788a5 table=fd51532ffc96
bf concentric/p7r/all/mid=0.01/boot=0 predict=7445d0d22a40 table=83de008d5223
bf concentric/p7r/sqrt/mid=0.0/boot=1 predict=399e310882d0 table=61481124023c
bf concentric/p7r/sqrt/mid=0.0/boot=0 predict=84a78c8166f8 table=d21756c922fd
bf concentric/p7r/sqrt/mid=0.01/boot=1 predict=bd0b647dc81f table=36bc96632339
bf concentric/p7r/sqrt/mid=0.01/boot=0 predict=f8c21aaade43 table=fdd497db066d
bf concentric/p7r/2/mid=0.0/boot=1 predict=fc26a669876f table=2d534b66a78a
bf concentric/p7r/2/mid=0.0/boot=0 predict=182f83bce27f table=14bf233a8c35
bf concentric/p7r/2/mid=0.01/boot=1 predict=b20866a843fd table=41dd47a814ca
bf concentric/p7r/2/mid=0.01/boot=0 predict=3cdb7b509326 table=21f51cd75d16
bf concentric/p60/all/mid=0.0/boot=1 predict=95d5294186d8 table=8ee94a51dceb
bf concentric/p60/all/mid=0.0/boot=0 predict=bc9b02eb6d7f table=96e720b9a22d
bf concentric/p60/all/mid=0.01/boot=1 predict=f3fee9204d5f table=0e6d6633b3cb
bf concentric/p60/all/mid=0.01/boot=0 predict=fe052259731a table=cddf94f2c580
bf concentric/p60/sqrt/mid=0.0/boot=1 predict=65063e2c051a table=3b8639fb6bfc
bf concentric/p60/sqrt/mid=0.0/boot=0 predict=8c8bfa56721a table=24e87888ca0d
bf concentric/p60/sqrt/mid=0.01/boot=1 predict=8be04773507c table=84779975ad96
bf concentric/p60/sqrt/mid=0.01/boot=0 predict=e372e6572272 table=6b790caa2243
bf concentric/p60/2/mid=0.0/boot=1 predict=095de79d6a15 table=1ec35c280a97
bf concentric/p60/2/mid=0.0/boot=0 predict=d62f9f604007 table=cdc06cb3c5a7
bf concentric/p60/2/mid=0.01/boot=1 predict=3ba06efc0842 table=697624fe771c
bf concentric/p60/2/mid=0.01/boot=0 predict=1cf7654acf56 table=375fb7b44a5e
sdf blobs/p2/all/mid=0.0/boot=1 built=024f81c1f019 history=75405eb54621 predict=de66f23273ef rng=aac971d611ad table=2915afe2ab1b
sdf blobs/p2/all/mid=0.0/boot=0 built=5b016e9aa080 history=ce6ca3579743 predict=003dced6a922 rng=b29ed5630738 table=45a028a7f55d
sdf blobs/p2/all/mid=0.01/boot=1 built=65d487df13af history=1aa8b915aa0b predict=052695c324be rng=daf4de8b4d1f table=ccccc8a379dc
sdf blobs/p2/all/mid=0.01/boot=0 built=5b5766bd9dc3 history=6711a9623f4e predict=997ae2e80ab2 rng=0664f4ae2ecb table=bcc6061d509f
sdf blobs/p2/sqrt/mid=0.0/boot=1 built=c6eb747dfb80 history=a8824ea4a948 predict=21513473660e rng=6d84afb5d5fc table=e3df595e6c12
sdf blobs/p2/sqrt/mid=0.0/boot=0 built=bf040544e737 history=42e719f54c09 predict=040c18c6603a rng=2c0caee80f88 table=8f5916c3eca7
sdf blobs/p2/sqrt/mid=0.01/boot=1 built=d0988f95935e history=b30efc99134a predict=f0bacf46a70b rng=127482a1cbc1 table=79da6caf2b2a
sdf blobs/p2/sqrt/mid=0.01/boot=0 built=41407fe4149c history=f76138740ab5 predict=b1ee7bf06573 rng=46e1315a2153 table=736baa5a4b8a
sdf blobs/p2/2/mid=0.0/boot=1 built=c08ba886aa48 history=102e342fe0ca predict=5431e6857444 rng=4174e2adc619 table=eb70917c68a1
sdf blobs/p2/2/mid=0.0/boot=0 built=478854e2fada history=9200a4746d6d predict=a43093519889 rng=ab39fe956f90 table=591a09ae5958
sdf blobs/p2/2/mid=0.01/boot=1 built=0d2f3cca2ded history=74420a350191 predict=8ffb53ac58f6 rng=4206f2d4b9b1 table=fe37683b0535
sdf blobs/p2/2/mid=0.01/boot=0 built=e5fc995dd610 history=0f00ec81773d predict=fb7b4b716e50 rng=cbb849f6775b table=29afc5b13c3d
sdf blobs/p7r/all/mid=0.0/boot=1 built=3f7e181811a2 history=622e7ae2ce3a predict=49abc517a264 rng=97da8ae7cf87 table=d000785b8c89
sdf blobs/p7r/all/mid=0.0/boot=0 built=d8c38bfd17db history=2f621f922b14 predict=cad0d6a4fd32 rng=9281045378bd table=cce80f5d891a
sdf blobs/p7r/all/mid=0.01/boot=1 built=d9335aa57baf history=54b9370e56eb predict=89e85b2e07af rng=6a9a55e2652c table=684312e441c2
sdf blobs/p7r/all/mid=0.01/boot=0 built=b181d5035836 history=6d2160ec2dc1 predict=4f6aa99f5e6b rng=1e82d3c1257c table=aaa601c47d2a
sdf blobs/p7r/sqrt/mid=0.0/boot=1 built=7d37114a7e7e history=009af93eca78 predict=beae8cec4794 rng=cc7311fa2089 table=7b7180e9ade4
sdf blobs/p7r/sqrt/mid=0.0/boot=0 built=4b28d2b95d5c history=25468dd3c2dd predict=a3a3e33748d1 rng=fcd1a742c234 table=fa6c1883ba16
sdf blobs/p7r/sqrt/mid=0.01/boot=1 built=11462c0e5fb4 history=b194a178aa5f predict=66fdf81ef162 rng=0c9bbae928c8 table=8bbecb823506
sdf blobs/p7r/sqrt/mid=0.01/boot=0 built=4485f932f4d6 history=b201f7f34e66 predict=dff0da2a0efe rng=cc8a064128d8 table=5159c283b7c4
sdf blobs/p7r/2/mid=0.0/boot=1 built=6b3fb0094d6e history=deb6908dc12a predict=352f91465d23 rng=0b45a5d2c3a4 table=4c868299b5ee
sdf blobs/p7r/2/mid=0.0/boot=0 built=c87cdaeb4066 history=0446fa5b3a1b predict=a3b79008a7ad rng=df83a96631e4 table=d782ee4bd5b9
sdf blobs/p7r/2/mid=0.01/boot=1 built=a884c9385f58 history=f69e25c05055 predict=41f317159199 rng=ff63bbdbc69d table=b8ebd0ee3fb5
sdf blobs/p7r/2/mid=0.01/boot=0 built=5266024f8f9b history=b1dd3842fe44 predict=82759e674036 rng=c355dc980067 table=0678bca11e67
sdf blobs/p60/all/mid=0.0/boot=1 built=ea7ae599254d history=87b4830f2e5b predict=7bd2383533cf rng=fe00d0df739d table=41b613855a3b
sdf blobs/p60/all/mid=0.0/boot=0 built=3dca90e85f45 history=65d175f2a93d predict=65baa7d071a3 rng=cfe9f912fa33 table=c09bd67ad4fc
sdf blobs/p60/all/mid=0.01/boot=1 built=f847bfaf442f history=e3d584dc6649 predict=6997c77fea03 rng=b4ba66f0543f table=93ca80789663
sdf blobs/p60/all/mid=0.01/boot=0 built=163a8dc915fe history=6dc2d4a2b00f predict=ca0a4a17ddce rng=2633097c3873 table=e33a466ba059
sdf blobs/p60/sqrt/mid=0.0/boot=1 built=60e41ead29f6 history=a71fd4b557ae predict=726efef9d300 rng=3bfaaca80eb8 table=80bbd43f6523
sdf blobs/p60/sqrt/mid=0.0/boot=0 built=2714f809e429 history=e7b4f6a95ced predict=732c4b471ae2 rng=deb15e4157bc table=e364be19a069
sdf blobs/p60/sqrt/mid=0.01/boot=1 built=996cfae62fce history=bb01ae52fa1e predict=8a6084fa7be6 rng=6c79027f1a3b table=f323ffd80aa8
sdf blobs/p60/sqrt/mid=0.01/boot=0 built=9d5b92a75f84 history=765184651430 predict=a59b5dc9481c rng=11a01dc1e854 table=d6e25b8f5b77
sdf blobs/p60/2/mid=0.0/boot=1 built=8d4a36653d72 history=738892038988 predict=acb757d843ff rng=f48b18f621fc table=a809bd21615b
sdf blobs/p60/2/mid=0.0/boot=0 built=df73d93329b7 history=b82182c5e0a5 predict=20eede89d351 rng=fd42051927ab table=29a8ff07d9ef
sdf blobs/p60/2/mid=0.01/boot=1 built=c6212afcc4bc history=9030265fa025 predict=33be3d7fbbc9 rng=080a2dc68f3a table=55933bd75c17
sdf blobs/p60/2/mid=0.01/boot=0 built=6256aae2ccb1 history=cf432425a55f predict=1f7bfe7a3378 rng=e97d6acded3b table=facb5979054f
sdf xor/p2/all/mid=0.0/boot=1 built=1aae8f74210c history=5cc706e37502 predict=856b2df3f302 rng=58001e2b9a7c table=de35ed460d09
sdf xor/p2/all/mid=0.0/boot=0 built=6982ddbb5372 history=c2b9551750dd predict=c61eca1d9d29 rng=778cff89f54a table=c6b10448173e
sdf xor/p2/all/mid=0.01/boot=1 built=49ead88f83ae history=ebf204be8f89 predict=cae81bb76555 rng=9c0bbe6a3c4e table=fb41c049de52
sdf xor/p2/all/mid=0.01/boot=0 built=584fe1d44da9 history=4d43d6885c18 predict=8395e6859986 rng=7fc38e12c4f2 table=d10034b2e7b7
sdf xor/p2/sqrt/mid=0.0/boot=1 built=fc83cebe4e2e history=841856072ff9 predict=9cadd2335389 rng=b8bb87f11deb table=46806af26198
sdf xor/p2/sqrt/mid=0.0/boot=0 built=9025d3c87c54 history=72aeabc5e388 predict=d176fe755219 rng=4d8fe812a00e table=80387b355dc3
sdf xor/p2/sqrt/mid=0.01/boot=1 built=864bdc89f93f history=7c92a0b2e24a predict=080cfc3634b6 rng=d6d140707d93 table=b01b82434f51
sdf xor/p2/sqrt/mid=0.01/boot=0 built=ed2cce7b0d61 history=097cc140c349 predict=3e401cd21cab rng=f7c9e98a5e6c table=b1c3a58298c3
sdf xor/p2/2/mid=0.0/boot=1 built=fe62c5e73f7c history=883b0f704701 predict=be4e7de7e58f rng=2344b56341bf table=c4185a75093e
sdf xor/p2/2/mid=0.0/boot=0 built=dcdf0c6065d1 history=c99c33a8a9b5 predict=3c6561bc9740 rng=01842f24141b table=8464e286a39a
sdf xor/p2/2/mid=0.01/boot=1 built=941645d35dac history=2db2fdb66c23 predict=3ddf438ef3fc rng=18a3bbf7f148 table=9e548d1dc8d2
sdf xor/p2/2/mid=0.01/boot=0 built=43b7d9c951ff history=b5da97c73954 predict=f939a0e51f71 rng=641aaaf1c82b table=489896f2dde6
sdf xor/p7r/all/mid=0.0/boot=1 built=09f83e4c5c84 history=13470127d4af predict=e8612b4283b3 rng=917505da28c4 table=2b5f01416d7e
sdf xor/p7r/all/mid=0.0/boot=0 built=e6ca06496626 history=ed79701b8a0c predict=01a712a0f0d1 rng=138c525af30c table=ab439fed397f
sdf xor/p7r/all/mid=0.01/boot=1 built=df7de386f4d9 history=50e92a307450 predict=c779be9ccfa6 rng=468f697abbd4 table=42b1da4895a6
sdf xor/p7r/all/mid=0.01/boot=0 built=566da8f5eb70 history=2e3bbd93938a predict=d0138e5b767f rng=903bd2e613bf table=41abb1672f99
sdf xor/p7r/sqrt/mid=0.0/boot=1 built=7cd234958d3f history=b99506747663 predict=87ff66392619 rng=d50adc4ea210 table=db4d4bb3bb6a
sdf xor/p7r/sqrt/mid=0.0/boot=0 built=e610465a1015 history=e09068d62bc6 predict=03d6ff23c459 rng=faa20b0826f9 table=ba5c180340cf
sdf xor/p7r/sqrt/mid=0.01/boot=1 built=2ef70f908fcc history=266db22f121a predict=c565088494c3 rng=64a98f1ea2ae table=4b2003ef3a95
sdf xor/p7r/sqrt/mid=0.01/boot=0 built=b03b0b5eeb6c history=d7ebc456bb96 predict=aeeddb700405 rng=4e35de415e85 table=dc8a8e20c70a
sdf xor/p7r/2/mid=0.0/boot=1 built=e9f988c87414 history=bef54be7a84a predict=34f5fd4c424d rng=17475bb7ead6 table=ba39a54a59e5
sdf xor/p7r/2/mid=0.0/boot=0 built=e49193a61c05 history=db63feadf9cb predict=8041ba298964 rng=ed0bae10b221 table=ef47cb51d0e3
sdf xor/p7r/2/mid=0.01/boot=1 built=9bf170d70b65 history=24190d15362b predict=ab0923cfc6e0 rng=7e4fa8677a85 table=19f8a7f78165
sdf xor/p7r/2/mid=0.01/boot=0 built=664552368cee history=8e97b8826abd predict=0687e63b44b0 rng=5aa40c9bb535 table=b69004d9a482
sdf xor/p60/all/mid=0.0/boot=1 built=c534cf43efd0 history=7cdde63f709e predict=701dd87e22a8 rng=e795b267b77d table=aabbca7600a7
sdf xor/p60/all/mid=0.0/boot=0 built=54b0dfbf9ed7 history=0271fda6e558 predict=db55ac825f9a rng=7f593157dfb7 table=03ad0ddb0589
sdf xor/p60/all/mid=0.01/boot=1 built=2c8551642103 history=36cc5fafa6c4 predict=583d5b97820b rng=5abd9c46b419 table=6aea15ffd101
sdf xor/p60/all/mid=0.01/boot=0 built=06f40ebed65a history=0bc6259f6cb0 predict=7fdc5ddf3928 rng=ac0d83ad4f37 table=68cf1817ac06
sdf xor/p60/sqrt/mid=0.0/boot=1 built=14204136c086 history=0789b8cf04fe predict=45c0ff059494 rng=f673fd9709ec table=0256165117ae
sdf xor/p60/sqrt/mid=0.0/boot=0 built=1fff76d44417 history=481680346419 predict=b1cffef35586 rng=dbfa348bfc2c table=a6e0cbc544fa
sdf xor/p60/sqrt/mid=0.01/boot=1 built=e00b0960e1a6 history=faf82f1cb7a1 predict=e97085ebca34 rng=f9053f8dcbce table=92e8fb2bf216
sdf xor/p60/sqrt/mid=0.01/boot=0 built=216ce515c0c3 history=b397e14ee767 predict=a6d94325673f rng=68a6c525dc0b table=0f45414493b1
sdf xor/p60/2/mid=0.0/boot=1 built=5ddf036337b7 history=1c90a2b56ca0 predict=a389f3831aee rng=db4451209913 table=224f2f00b447
sdf xor/p60/2/mid=0.0/boot=0 built=c9709fbcf4a8 history=2f44fc19a84b predict=28a166e962f5 rng=8583781c0412 table=5b1e4a5e4bc7
sdf xor/p60/2/mid=0.01/boot=1 built=87288ac88d59 history=ff5c2790ebdd predict=4215ef275831 rng=8983cf2ddab4 table=b16353482945
sdf xor/p60/2/mid=0.01/boot=0 built=eef4471e0d39 history=4ff39aaf59fc predict=56b3b37f2cfc rng=0e67dc7aaf53 table=5051b92e33fd
sdf concentric/p2/all/mid=0.0/boot=1 built=67abec883d2a history=eb1c890d4794 predict=f09256747ed6 rng=479758a5dbc3 table=9a57ddd89f82
sdf concentric/p2/all/mid=0.0/boot=0 built=51c74f670fdc history=a2151f11b0da predict=f4628335e406 rng=81c3bb645d57 table=3b99aca3dc40
sdf concentric/p2/all/mid=0.01/boot=1 built=586b35d07e7b history=9015618b0efe predict=9fc5d1165ed4 rng=d88c9abdfbf0 table=ef4cffc530f3
sdf concentric/p2/all/mid=0.01/boot=0 built=54be51b0b444 history=5008659a471f predict=8841a206c0cc rng=0e6136ddd6d4 table=aa6f48d3b9bc
sdf concentric/p2/sqrt/mid=0.0/boot=1 built=98bc1770a9c6 history=cc7e294f4a57 predict=cc0b0c928e6c rng=7112c251ff21 table=c2eeb00bd3f4
sdf concentric/p2/sqrt/mid=0.0/boot=0 built=39768eea43d6 history=202d303e85e4 predict=090c600f0080 rng=bc78bf34a085 table=402527323239
sdf concentric/p2/sqrt/mid=0.01/boot=1 built=717e1417b3a7 history=472395d03eaa predict=e419bbb3a7ec rng=e1f6552ba020 table=6db4e6871568
sdf concentric/p2/sqrt/mid=0.01/boot=0 built=ce7cfa5d68bf history=be36e603af2a predict=4d1fb4e8deaf rng=d31b310018a0 table=491f2554de1b
sdf concentric/p2/2/mid=0.0/boot=1 built=29eb7745d90b history=bbb36f462ffe predict=662de3140408 rng=d45c0daa4cc9 table=08c1faa7037a
sdf concentric/p2/2/mid=0.0/boot=0 built=82081c5510c1 history=734c89a1d40e predict=869313c5c2ca rng=3e7c7cad5060 table=d607b4a7859b
sdf concentric/p2/2/mid=0.01/boot=1 built=52d93938c25f history=3dbabbd6ef4f predict=dd4170dcf163 rng=04e5068aaa42 table=36f591c31aa4
sdf concentric/p2/2/mid=0.01/boot=0 built=3cd1b38e7352 history=0c3e97fbc092 predict=f5da21b7bf6b rng=92e54d30395b table=2a762f4160f3
sdf concentric/p7r/all/mid=0.0/boot=1 built=c4d799c3c117 history=7011f1df87ba predict=0ba29a599164 rng=5e971f68b037 table=a4ee89550783
sdf concentric/p7r/all/mid=0.0/boot=0 built=5022910e456b history=4f90ffb1abd5 predict=3b1cb03314bc rng=be6e8541d37b table=f6b1388e8efc
sdf concentric/p7r/all/mid=0.01/boot=1 built=655b057de1bb history=bd0a4bb348d5 predict=cf4c03a58198 rng=1cbaa8a01810 table=10e8ff16458c
sdf concentric/p7r/all/mid=0.01/boot=0 built=0115223db350 history=a30cd04381ff predict=79d19e837962 rng=25bb08da7551 table=b609f0ca45e4
sdf concentric/p7r/sqrt/mid=0.0/boot=1 built=1bcdf533a7d7 history=6445a14c7961 predict=8e366f11c096 rng=a4d46f4e8332 table=20dfa9374296
sdf concentric/p7r/sqrt/mid=0.0/boot=0 built=1a5d69ebc5ea history=621574828f3d predict=c95d3b9caf65 rng=473cd8f2c0b6 table=b6753a95b722
sdf concentric/p7r/sqrt/mid=0.01/boot=1 built=74394e0dd7f8 history=d24561532939 predict=49f4848ff674 rng=a7236e055b39 table=0c936d9c62cd
sdf concentric/p7r/sqrt/mid=0.01/boot=0 built=4ef3737d1ccf history=37319027130a predict=304d45a07f44 rng=0f1b8c67eff2 table=ef50d6e05b9b
sdf concentric/p7r/2/mid=0.0/boot=1 built=903931b82210 history=b15eb71a0018 predict=2d5263212557 rng=83bf51587bdf table=6914033fee78
sdf concentric/p7r/2/mid=0.0/boot=0 built=e2a69746562f history=a1fd05b0468c predict=f1ffb302b116 rng=710b37cd2ae5 table=52a48e2513a7
sdf concentric/p7r/2/mid=0.01/boot=1 built=e55a3e0b2ec1 history=6e93f3b9333e predict=3cdfef46573f rng=481285d93b88 table=4d3b568e6ee1
sdf concentric/p7r/2/mid=0.01/boot=0 built=ea1f4f6d7718 history=0e14de412ec3 predict=9c23717fa999 rng=a12b46ad07ce table=b3732c5333c0
sdf concentric/p60/all/mid=0.0/boot=1 built=4fb2ffc8e55b history=1095b01a25c7 predict=d954ecce51b1 rng=67ee299fbad7 table=ff546edf9c65
sdf concentric/p60/all/mid=0.0/boot=0 built=9eba20635111 history=2ef57a5323cc predict=1c998320c487 rng=d096ad37ac38 table=30bd099397fb
sdf concentric/p60/all/mid=0.01/boot=1 built=ddde065e1285 history=87051e8b57b8 predict=9c810292b98e rng=0ef4882d5236 table=546fb248f0c4
sdf concentric/p60/all/mid=0.01/boot=0 built=b30f6009dc7b history=b9ad37a5d471 predict=c70f90bb7273 rng=7df5b22da8c0 table=38879aaf1381
sdf concentric/p60/sqrt/mid=0.0/boot=1 built=b5bd76cff5e7 history=0512432ab44a predict=a9900e144045 rng=83b3be348100 table=0e10f10e09dc
sdf concentric/p60/sqrt/mid=0.0/boot=0 built=aab3f7edebf4 history=c64243e3d16c predict=c1a36e42d839 rng=56b474d5f98d table=4381326e97d2
sdf concentric/p60/sqrt/mid=0.01/boot=1 built=10ae8c036174 history=38b6a7a7477c predict=a6fc4b9c4bcf rng=544b935ac42f table=6086c9252f75
sdf concentric/p60/sqrt/mid=0.01/boot=0 built=d476ef46f1b2 history=5389db44e44c predict=c1a3b3d5c53e rng=abafc29f7325 table=7d3890b16f7d
sdf concentric/p60/2/mid=0.0/boot=1 built=86f871352934 history=b29e0f5309fb predict=99a0fdda26b3 rng=bf25e90a9000 table=7dc12d875851
sdf concentric/p60/2/mid=0.0/boot=0 built=120eaec4ae08 history=fd3d71e7985c predict=8139ea0813ff rng=d5d5fc898c09 table=8a283209872f
sdf concentric/p60/2/mid=0.01/boot=1 built=66340a14f996 history=29b790dc9e73 predict=11e8add54df1 rng=1a3717a14f8f table=6c25ba1f4b1b
sdf concentric/p60/2/mid=0.01/boot=0 built=0daf6a602cc9 history=c6a45748590b predict=e6f606df98ab rng=bf8ecf137855 table=71a84ca8a0c8
"""


if __name__ == "__main__":
    for model in MODELS:
        for cell in _cells(model):
            sys.stdout.write(_line(model, cell[0], _digest(model, *cell[1:])) + "\n")
