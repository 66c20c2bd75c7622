"""Golden digests of the nine report-all CSVs.

The corpus is `synth --n-users 2000 --seed 11`, run through cli.main at the
inferred analysis date and at --curr-date 2012-01, each at --min-support 1
and 10. A change that means to alter report bytes updates these digests and
says why in CHANGES.md; any other change must leave them as they are.
"""

import hashlib

import pytest

from talentflow.cli import main

DIGESTS = {
    (None, 1): {
        "centrality_ccdf_job.csv": "725d413756a04ebc6915d7e43d638b69f5213c0387f2e75ade408bb41c8ad722",
        "cohort_fractions.csv": "2ab31f300b49941e0760d27522e9c9975396d38be05e81d73c7fe69812024373",
        "distributions.csv": "876873e1eb3f749e167d5d31b65d85427b69897e6bd596e9527537d9e966a6e2",
        "graph_stats.csv": "4924584fcca70de4e65a87066e81576a42747748890f6b6d208d9a5b7b391f9c",
        "level_gain_hist.csv": "8aded60658f569691f7cdb310375d28f0f14637b382f185af593b37a5b184bbf",
        "promotion_table.csv": "7d146e5f03e1f0236eaf0fb3985142d6f97f20c9ad98918ed7e3f67d690d06da",
        "stay_analysis.csv": "f8816f972e524f6aaade440952054dbd390a1c20c57667a2edb588cf3de48971",
        "top20_job.csv": "8352d5fd527e7c6c5cef3dabc98deecaf7a53a8a6bcda07133401fae08b75e72",
        "top20_org.csv": "74467833bfca869134cea07992c06ecc09868a5dbbe379d8b66dec829da6c70b",
    },
    (None, 10): {
        "centrality_ccdf_job.csv": "725d413756a04ebc6915d7e43d638b69f5213c0387f2e75ade408bb41c8ad722",
        "cohort_fractions.csv": "2ab31f300b49941e0760d27522e9c9975396d38be05e81d73c7fe69812024373",
        "distributions.csv": "876873e1eb3f749e167d5d31b65d85427b69897e6bd596e9527537d9e966a6e2",
        "graph_stats.csv": "4924584fcca70de4e65a87066e81576a42747748890f6b6d208d9a5b7b391f9c",
        "level_gain_hist.csv": "8aded60658f569691f7cdb310375d28f0f14637b382f185af593b37a5b184bbf",
        "promotion_table.csv": "7d146e5f03e1f0236eaf0fb3985142d6f97f20c9ad98918ed7e3f67d690d06da",
        "stay_analysis.csv": "f8816f972e524f6aaade440952054dbd390a1c20c57667a2edb588cf3de48971",
        "top20_job.csv": "8352d5fd527e7c6c5cef3dabc98deecaf7a53a8a6bcda07133401fae08b75e72",
        "top20_org.csv": "74467833bfca869134cea07992c06ecc09868a5dbbe379d8b66dec829da6c70b",
    },
    ("2012-01", 1): {
        "centrality_ccdf_job.csv": "402b78334790ff31f842bb25306d18f83e9b2b9c0878ea6752b4c1e259328bda",
        "cohort_fractions.csv": "efdbdcc8904bd5aca54247a21f47ffb8b5992a93362c0c688be1796d0630beeb",
        "distributions.csv": "7caf23ab203d8c3626edfa814dd9448573a91975568e0ab9b8808579ab39d081",
        "graph_stats.csv": "f40a309fd5edb36f87e5a1d41e9cdf4dd9e2a3852c99f295b341bb282ba0a7b3",
        "level_gain_hist.csv": "a16811762b1d3b57221fe229bb57ede3c6e5f9bfc496243bed2fe251afa99b5b",
        "promotion_table.csv": "406a85f100875661608e056628ce3776b3ac9ecc715b85da0eebe51c331246f0",
        "stay_analysis.csv": "c35071cfc89a1f173cf4ef67c9d0774a0f7f43af47a33df7bde7b1399de5041d",
        "top20_job.csv": "f490fb5eb1b9c2edcd696ecf0bc8559879fa3d1263e60eea66bd250aa5f91ce2",
        "top20_org.csv": "873dd121b57b309f65538efee834256a30af66e470080b71ebf21c1254258b2d",
    },
    ("2012-01", 10): {
        "centrality_ccdf_job.csv": "402b78334790ff31f842bb25306d18f83e9b2b9c0878ea6752b4c1e259328bda",
        "cohort_fractions.csv": "efdbdcc8904bd5aca54247a21f47ffb8b5992a93362c0c688be1796d0630beeb",
        "distributions.csv": "7caf23ab203d8c3626edfa814dd9448573a91975568e0ab9b8808579ab39d081",
        "graph_stats.csv": "f40a309fd5edb36f87e5a1d41e9cdf4dd9e2a3852c99f295b341bb282ba0a7b3",
        "level_gain_hist.csv": "cff90dc4e04f06899522e9ddb378bb2a8749c3ee2292eb3692744e4619cf2bd0",
        "promotion_table.csv": "df76d6992ca97c46c71606c0f89a686aac7719f8c0db304dfafd6244d74ec89d",
        "stay_analysis.csv": "521c0e6f42508247da2c4a0053b05ca043cc95b98676b6d3085872122ef1ea3f",
        "top20_job.csv": "f490fb5eb1b9c2edcd696ecf0bc8559879fa3d1263e60eea66bd250aa5f91ce2",
        "top20_org.csv": "873dd121b57b309f65538efee834256a30af66e470080b71ebf21c1254258b2d",
    },
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    path = root / "corpus.jsonl"
    argv = ["synth", "--n-users", "2000", "--seed", "11",
            "--out", str(path), "--truth", str(root / "truth.json")]
    assert main(argv) == 0
    return path


@pytest.mark.parametrize("curr_date, min_support", sorted(DIGESTS, key=str))
def test_report_all_digests(corpus, tmp_path, capsys, curr_date, min_support):
    argv = ["report-all", "--input", str(corpus), "--out-dir", str(tmp_path),
            "--min-support", str(min_support)]
    if curr_date is not None:
        argv += ["--curr-date", curr_date]
    assert main(argv) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == DIGESTS[(curr_date, min_support)]
