"""Golden digests of `talentflow graph build` exports.

The corpus is `synth --n-users 2000 --seed 11`, built at the inferred
analysis date for both levels, at --min-support 1, 10 and 200 (the last
prunes nodes at both levels), with and without --distinct-users, and
exported as csv, dot and graphml. A change that means to alter export bytes
updates these digests and says why in CHANGES.md; any other change must
leave them as they are.
"""

import hashlib

import pytest

from talentflow.cli import main

DIGESTS = {
    ("job", 1, False, "csv"): "7166a109bfa690cbbf7d2cdd1c3825be31ee7cb5813c11747a6cf48eae6bca2a",
    ("job", 1, False, "dot"): "f13c7bf4af3c5888671f1f6f59428d769df9bc3cf2cd290062644cb652de466f",
    ("job", 1, False, "graphml"): "558a16bf213272ef98ca046da5a62738676c8fe284b1c87ebc046f43cf1e479f",
    ("job", 1, True, "csv"): "48cc157ea322876cb43178f32bf6055c549d3e408e790d400faf200eb3b8788f",
    ("job", 1, True, "dot"): "b3751700c8c9c5409b49b4433f7ff32390b637d2f158d048bfcb893611102068",
    ("job", 1, True, "graphml"): "f0f6f4e80a1a21da1048a8b54f5faa885385bac5f6b7c7f3f49c98106edba536",
    ("job", 10, False, "csv"): "7166a109bfa690cbbf7d2cdd1c3825be31ee7cb5813c11747a6cf48eae6bca2a",
    ("job", 10, False, "dot"): "f13c7bf4af3c5888671f1f6f59428d769df9bc3cf2cd290062644cb652de466f",
    ("job", 10, False, "graphml"): "558a16bf213272ef98ca046da5a62738676c8fe284b1c87ebc046f43cf1e479f",
    ("job", 10, True, "csv"): "48cc157ea322876cb43178f32bf6055c549d3e408e790d400faf200eb3b8788f",
    ("job", 10, True, "dot"): "b3751700c8c9c5409b49b4433f7ff32390b637d2f158d048bfcb893611102068",
    ("job", 10, True, "graphml"): "f0f6f4e80a1a21da1048a8b54f5faa885385bac5f6b7c7f3f49c98106edba536",
    ("job", 200, False, "csv"): "dea84d19a4b3aca8fede943f888462bdf554781e1e60d7546a5ea6af5bd06c82",
    ("job", 200, False, "dot"): "c7f6ba3f96d594ff3c25935e9c4a20242f8b3b630017d168360f77323b105f65",
    ("job", 200, False, "graphml"): "94b4ed7aa73a8fae14c7a174338efa72c1a09d8e1ab77916afe5c0c061ab0526",
    ("job", 200, True, "csv"): "7eb175c3b77dfb46413219e6e6e5d990db8bae1e1ff803f80242239d91d25cf1",
    ("job", 200, True, "dot"): "b64bcde361ecba69a68977818314b8daa006a25216daa5d5a696ae30dd3fbeed",
    ("job", 200, True, "graphml"): "0f5a00418a52ae0394dee650c7fb903f97a82c7c65b6e63d330f777d9da5da61",
    ("org", 1, False, "csv"): "1e091bc1e6697cf26c817bd1fe362fba6e64853e06f259779767cc9bfd0f4ce5",
    ("org", 1, False, "dot"): "2caa039fb167477c92f62c198da91a0b8fb8dc5b0d2191de47f7a81286be2234",
    ("org", 1, False, "graphml"): "f1f181af9d920dcdb20e068e676e846be09365190b97a015a570cd4b038cde06",
    ("org", 1, True, "csv"): "b1c6a30efc304edd0c54899939c2863448521ddf31ce2f80cd733b519ec18209",
    ("org", 1, True, "dot"): "c656c4d847911119e29f60ebc2eb1b3614b30c8af2d8eebbebf0eaec4e60eb52",
    ("org", 1, True, "graphml"): "0494a8d42b1dd0cfd764bc40feb3f85014443316c4d35d4fee6da51d58278165",
    ("org", 10, False, "csv"): "1e091bc1e6697cf26c817bd1fe362fba6e64853e06f259779767cc9bfd0f4ce5",
    ("org", 10, False, "dot"): "2caa039fb167477c92f62c198da91a0b8fb8dc5b0d2191de47f7a81286be2234",
    ("org", 10, False, "graphml"): "f1f181af9d920dcdb20e068e676e846be09365190b97a015a570cd4b038cde06",
    ("org", 10, True, "csv"): "b1c6a30efc304edd0c54899939c2863448521ddf31ce2f80cd733b519ec18209",
    ("org", 10, True, "dot"): "c656c4d847911119e29f60ebc2eb1b3614b30c8af2d8eebbebf0eaec4e60eb52",
    ("org", 10, True, "graphml"): "0494a8d42b1dd0cfd764bc40feb3f85014443316c4d35d4fee6da51d58278165",
    ("org", 200, False, "csv"): "ee8e3a9553e48b95ef839a333e703b394e4f12b5ee9297faa9f4527b5a2a5c16",
    ("org", 200, False, "dot"): "8b8044b7ca3fa2850136237a742c9e337450a894d36e97d067eb144303d9ee57",
    ("org", 200, False, "graphml"): "9f0133e5ca8a3cbd9ba85b00d95c7dec76de590d3f7d8d196844cfd4584c3735",
    ("org", 200, True, "csv"): "6803937798ac331bb0559d5e21aeb0bf117dfef7c8dd122a09fe302d0ed6ee8d",
    ("org", 200, True, "dot"): "3d2fea792cda8aace96a11af038c8a1771b0f95bba8056b57e8d04f02bfe7921",
    ("org", 200, True, "graphml"): "faa2273096a6222241f3274d69571f6a92a41e41e72b8afc6f365120d931939c",
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_exports")
    path = root / "corpus.jsonl"
    argv = ["synth", "--n-users", "2000", "--seed", "11",
            "--out", str(path), "--truth", str(root / "truth.json")]
    assert main(argv) == 0
    return path


@pytest.mark.parametrize("level, min_support, distinct_users, fmt", sorted(DIGESTS))
def test_graph_build_digests(corpus, tmp_path, capsys, level, min_support, distinct_users, fmt):
    out = tmp_path / f"graph.{fmt}"
    argv = ["graph", "build", "--input", str(corpus), "--level", level,
            "--min-support", str(min_support), "--format", fmt, "--out", str(out)]
    if distinct_users:
        argv.append("--distinct-users")
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[(level, min_support, distinct_users, fmt)]
