"""Golden memo keys and ELFie bytes of a cold campaign, per selector.

A tiny cold campaign runs for each region selector (PinPoints on
``505.mcf_r``, LoopPoint on ``mt.prodcons``; ``test`` input, ``max_k``
4, one alternate, one validation).  Every manifest record's identity
(job, stage, selector, memo key, cache outcome, icount) and the SHA-256
of every ELFie image must match the literals below.  A refactor of the
drivers or runners that moves any of them would turn every existing
store cold (or, worse, serve stale artifacts), so a change here must be
deliberate: bump the selector version and re-record.
"""

import hashlib

import pytest

from repro.farm import ArtifactStore, read_manifest
from repro.looppoint import looppoint_validation, run_looppoint_campaign
from repro.simpoint import elfie_validation, run_pinpoints_campaign
from repro.workloads import get_app, get_mt_app

PINPOINTS_RECORDS = [
    ("505.mcf_r/profile", "profile", "bbv-simpoint/v1",
     "513c66b53cac3ab2e0d2d7e0d09b2649f9efceabb61e5b80c92eca3d9e9736be",
     "miss", 209632),
    ("505.mcf_r/select", "cluster", "bbv-simpoint/v1",
     "833961ff09952853f2532871c938fc9ec9fc1bfb5ffa4d24bdcdf4c752400406",
     "miss", None),
    ("505.mcf_r/log0", "log", "bbv-simpoint/v1",
     "41b7db893affd20216ceee1b2d95269a70bfd5099a7b492e1643c4fda0365d7c",
     "miss", 195000),
    ("505.mcf_r/log1", "log", "bbv-simpoint/v1",
     "b5eb9624ba1cfd16c22ab503b37d3813273db7bf02d92e785692896f99a397e2",
     "miss", 160000),
    ("505.mcf_r/convert/505.mcf_r.r0.alt1", "convert", "bbv-simpoint/v1",
     "72248a3c2fc8fdda463ad0c3958d3b40f293ed0d3faf9190f1997affbc7f2481",
     "miss", None),
    ("505.mcf_r/convert/505.mcf_r.r0", "convert", "bbv-simpoint/v1",
     "ec3fb75bc78f48fca009a9b2105650124360f0072d44aa4671e689f11318507b",
     "miss", None),
    ("505.mcf_r/convert/505.mcf_r.r2", "convert", "bbv-simpoint/v1",
     "b167420f0f61001e01e208aa71426c88a768e0aeaf4471e94c43b0af1f207a0a",
     "miss", None),
    ("505.mcf_r/convert/505.mcf_r.r3", "convert", "bbv-simpoint/v1",
     "8bb4b7a1ccea67d831deee38ae78c4335e516c721ed22e59ec0ae25dd6459e04",
     "miss", None),
    ("505.mcf_r/convert/505.mcf_r.r1", "convert", "bbv-simpoint/v1",
     "1977227ba40e0d7e197012e3ed8cc33d13375b415937907d8c2f4475e45e3f11",
     "miss", None),
    ("505.mcf_r/convert/505.mcf_r.r3.alt1", "convert", "bbv-simpoint/v1",
     "5d3236a7893246ca09d0ff05c3c07771d60f5a5ab3503fa96ae63f735de55a95",
     "miss", None),
    ("505.mcf_r/convert/505.mcf_r.r2.alt1", "convert", "bbv-simpoint/v1",
     "4fa2b95fd8a69c3f7ad387bd2539fd2fd3d2ac8651f3e9a99a707add442e1e00",
     "miss", None),
    ("505.mcf_r/convert/505.mcf_r.r1.alt1", "convert", "bbv-simpoint/v1",
     "a26f56ba77fc5a26d275bf391031675ac53052c5aa378097ea82f61d799218fa",
     "miss", None),
    ("505.mcf_r/assemble", "assemble", "bbv-simpoint/v1",
     "",
     "none", None),
    ("505.mcf_r/validate/v", "validate", "bbv-simpoint/v1",
     "5dc1c320f9df58cc4e10dc03f2338dccc6705fd05ff013d439f03d13ba2221d6",
     "miss", None),
]

PINPOINTS_ELFIES = {
    "505.mcf_r.r0":
        "be60981cd90931fb1bb9650a628294cff9637e544f4aa7d736857476aeb42eaf",
    "505.mcf_r.r0.alt1":
        "8a936f9a3b92b24248d69f3e790c6a03f04fe17725e274c942c2c8f7571ac488",
    "505.mcf_r.r1":
        "42182f289fefaa3984c3a9e3490d1bf8b805adeeaf0b5f7c8c19bb4b3bad6210",
    "505.mcf_r.r1.alt1":
        "054ee60c01ae2215d52695e306d881f05184f15810dba28d9fb0c3e3851995c7",
    "505.mcf_r.r2":
        "99950a1cf8b53eb76355fae63dc0e549c5d17fae5656d7c1530564672d7f895d",
    "505.mcf_r.r2.alt1":
        "73e0efd623da62b1424dada457f634cda3d306ec0b01141117b287b403b97d7c",
    "505.mcf_r.r3":
        "bb552ae9e29ec0b0a92a5094eba40c981583144c2c44dc4632da6f26a49e5a6d",
    "505.mcf_r.r3.alt1":
        "63a5451213dc76cdb2063b7c34a7288b073be86b00d51edeae9d91ea53b7d0b2",
}

LOOPPOINT_RECORDS = [
    ("mt.prodcons/profile", "profile", "looppoint/v1",
     "49695d8bce696ce3c2ea1e4349380e9fcf2bf383bb67f9848e06820f13884b09",
     "miss", 34841),
    ("mt.prodcons/select", "cluster", "looppoint/v1",
     "9829425f81a90cc796af028e3c9e2c1cf1d463546fa1eea359c8439c508e04b2",
     "miss", None),
    ("mt.prodcons/log0", "log", "looppoint/v1",
     "146597eacd307a9c033530d824c9959369368dd57519ee742f9282c11aa94997",
     "miss", 34663),
    ("mt.prodcons/log1", "log", "looppoint/v1",
     "83b51e1ae25025be308206cc4e253828cb475542d3b4153a81de97c38e6a76d1",
     "miss", 33905),
    ("mt.prodcons/convert/mt.prodcons.L1", "convert", "looppoint/v1",
     "2b66ef9dcfdc6731678b80b5fd1b4152808409012b371df2c6db52cf7055a40b",
     "miss", None),
    ("mt.prodcons/convert/mt.prodcons.L1.alt1", "convert", "looppoint/v1",
     "96f50bf0870ac69b712e6acc3319b0a477d8dfff3f856e0757a35378f9b6507b",
     "miss", None),
    ("mt.prodcons/convert/mt.prodcons.L2", "convert", "looppoint/v1",
     "e147992778f7a971448e0c1bf627fe5ceea2d9e95e5952687a9bc68cd54d70ba",
     "miss", None),
    ("mt.prodcons/convert/mt.prodcons.L0.alt1", "convert", "looppoint/v1",
     "12538b2a268424ae8d362bd795555096e6615bb032754e61e6a62691a7540112",
     "miss", None),
    ("mt.prodcons/convert/mt.prodcons.L3", "convert", "looppoint/v1",
     "a3f3124b361da7d3fa7684d4b958039052b011de2a51e6e5ea05923d3862a173",
     "miss", None),
    ("mt.prodcons/convert/mt.prodcons.L0", "convert", "looppoint/v1",
     "edbf11778b980c0b676c3e35eaa14f32595602b62dd944782226127469ec8558",
     "miss", None),
    ("mt.prodcons/convert/mt.prodcons.L2.alt1", "convert", "looppoint/v1",
     "f81d7c87ef491a84d4927a2259590fe3707381a021b2b2cfc37125192188fe0c",
     "miss", None),
    ("mt.prodcons/convert/mt.prodcons.L3.alt1", "convert", "looppoint/v1",
     "804e7a17a653b593d848afda8429671577e8483cc403c572fbbf368d2ee9f7d9",
     "miss", None),
    ("mt.prodcons/assemble", "assemble", "looppoint/v1",
     "",
     "none", None),
    ("mt.prodcons/validate/v", "validate", "looppoint/v1",
     "b3068a1e908fec583a2b3d7c60c13ec62800f43758ef3be07de036f3c4c8153d",
     "miss", None),
]

LOOPPOINT_ELFIES = {
    "mt.prodcons.L0":
        "5425bd6863aefa8864a9a7a2cd34aa5ebcc130ddfe3ccc05b1b33608a641d4af",
    "mt.prodcons.L0.alt1":
        "f87e0af041d4f077762e34970eb9564e66a26cbf3d2279b77b4f343a6b37eaa5",
    "mt.prodcons.L1":
        "6b7eff87e08062c12a82f434b8e940757c62b2c6d67b302733e524dba03e6f43",
    "mt.prodcons.L1.alt1":
        "fae8e37d0e71ed4f34129221ea93bc77ecac794a43464e4f3ee0b3c7da731562",
    "mt.prodcons.L2":
        "f32ce0fbb9241ffa15dd7faa5a2ad557dc6b86bf741b9025000fb200cb404ddb",
    "mt.prodcons.L2.alt1":
        "8a9f179c22702bfe7c1b22c1f538384c69266c83a35543000d435fd64830aeeb",
    "mt.prodcons.L3":
        "719e79bc1e45e85320da88eff16752c0afb869fede82d312b4c290e4c18cb8d3",
    "mt.prodcons.L3.alt1":
        "0bfbd9150e9c9ec6a5cceef77aa98ff797e2693dcdd2611dfe6330ad03f39dd2",
}

FIELDS = ("job", "stage", "selector", "key", "cache", "icount")


def _campaign(run, app, image, validation, tmp_path, **params):
    manifest = str(tmp_path / "run.jsonl")
    outcomes = run({app: image}, ArtifactStore(str(tmp_path / "store")),
                   jobs=1, manifest_path=manifest, max_k=4,
                   max_alternates=1, validations=[validation], **params)
    records = [tuple(record[name] for name in FIELDS)
               for record in read_manifest(manifest)]
    elfies = {name: hashlib.sha256(artifact.image).hexdigest()
              for name, artifact in outcomes[app].result.elfies.items()}
    return records, elfies


@pytest.mark.parametrize("selector", ["pinpoints", "looppoint"])
def test_cold_campaign_keys_and_elfies_are_pinned(selector, tmp_path):
    if selector == "pinpoints":
        records, elfies = _campaign(
            run_pinpoints_campaign, "505.mcf_r",
            get_app("505.mcf_r").build("test"),
            elfie_validation("v", trials=1), tmp_path,
            slice_size=5_000, warmup=10_000)
        expected_records, expected_elfies = (PINPOINTS_RECORDS,
                                             PINPOINTS_ELFIES)
    else:
        records, elfies = _campaign(
            run_looppoint_campaign, "mt.prodcons",
            get_mt_app("mt.prodcons").build("test"),
            looppoint_validation("v", trials=1), tmp_path,
            slice_markers=32)
        expected_records, expected_elfies = (LOOPPOINT_RECORDS,
                                             LOOPPOINT_ELFIES)
    assert sorted(records) == sorted(expected_records)
    assert elfies == expected_elfies
