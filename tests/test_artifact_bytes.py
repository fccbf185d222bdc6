"""Byte pins on every file `certify` and `gallery` write, figures included.

Each shipped scenario runs all four stages with SVG figures on, and every
artifact (the member and coordinate CSVs, limit.csv, evidence.csv, the
three figures and report.json) must keep its sha256, as must the
stability-contrast gallery's gallery_report.json for painleve at its
default horizon and at t = 100, and for laloy.  A change that claims to
keep the verdicts, the numbers and their formatting keeps these bytes.
"""
import hashlib
import os

import pytest

import flatvalley as fv
from flatvalley import cli

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "scenarios")

# name -> {path under the output directory: sha256}, recorded before the
# table writer and the vectorised SVG coordinates replaced per-cell formatting;
# evidence.csv and report.json re-recorded when each member's physical run,
# at about half its substeps, replaced its twin as the evidence,
# report.json again when the coordinates stage's metric probe was removed,
# every file but some figures when each member's substeps came from its
# gates (a probe call and one re-run) instead of a fixed factor, and the
# ellipsoid's and gutter's files again when the probe followed each
# field's profile exponent and each foot-point flow row took its own
# substeps (the circle's bytes did not move)
ARTIFACT_DIGESTS = {
    "circle": {
        "coords_eps0.csv":
            "c9996388a0b4d793ffc7f3d531b100d10aac410f81e7c5acd1ba3369c9a748bf",
        "coords_eps1.csv":
            "20f7bc13f68ca48b448233db794e18e7d4f06a2bfbd350764b747979be33a8b0",
        "coords_eps2.csv":
            "f9397e3695a1c7e2e9e0aa5ad45c09412d9f27101b89cbcd1e13c1142495a416",
        "coords_eps3.csv":
            "f9e9e2954ab6a2d056dfa98beef6aa65e64aa36a01fa77328f7fc4fd148e73f7",
        "coords_eps4.csv":
            "840690fa00cb8b1cb27ac431f6519a85abc3ccd58c2abd1028927d737d4e3930",
        "coords_eps5.csv":
            "fc2769739b9a4b32afd377153b2e5f11083a54110a208955af2e912c6fae203f",
        "evidence.csv":
            "0c0045f8063f945fa2d3e1753344eb9832e452d3981d606a72358524f3a7a913",
        "figures/convergence.svg":
            "f9a1b57df101cfcc35de9652a7d0413c53a0ab00e883e1e7f738e51835a002dc",
        "figures/trajectories.svg":
            "d45a9a668a75dbfa004c71d17a14ccec7a2a600c506de5183e2a09f7231de6de",
        "figures/violation.svg":
            "394a1eec44255e4b847719e1520358e5c274857bcf2569612ff23d78276b48d9",
        "limit.csv":
            "e1d71c9f6be8dcfeae687a468ff23e055d230840a486fd66ece14991756c3bd3",
        "report.json":
            "66fd799875a44b07db6973ac10b74c8348630ad8e42da53b5f1d59a2eb96a2c2",
        "traj_eps0.csv":
            "7ca7df915474329c6a14d87b62b4e185b93b04672d953f6f4a4dec4722e72a97",
        "traj_eps1.csv":
            "d3e0148bd6daf89d1067953909656387d214d047f399938ce51766a992304a9f",
        "traj_eps2.csv":
            "c9e5d816c20422487b420b8b9803fa5af71574f71a68d5b83056ad1f0efead37",
        "traj_eps3.csv":
            "46566ad0cd76f4782711c658fcf84ce0bd7a01df032cc9edad0fabbbcfe62b52",
        "traj_eps4.csv":
            "a5cf135530063d2e371f4a2e1edacc06225e75077d96a3aa27c6a6213a28a49b",
        "traj_eps5.csv":
            "e60765c0145e33c3c503858a8f58ea6cffa30ebc8e61379556ec7cd7daf34993",
    },
    "ellipsoid": {
        "coords_eps0.csv":
            "95ba74cd8776bdcaa63912a1b1a0237879e069456e52e1a1d48209217ab60036",
        "coords_eps1.csv":
            "d49c2f87456babca08a283929e0f148f54711a8c3c72cf6152d819e463e07c1f",
        "coords_eps2.csv":
            "98e3c04fae9982c85a617b10efbc1d91caaf141876c6eac7c150ac7f222f073b",
        "coords_eps3.csv":
            "f2f0b2284df83e89fcc51846fefdb0282315a4ab6dd903b48a3eaf42c299ab92",
        "coords_eps4.csv":
            "7e9f5663d281d1dfbb08a180ee8292d3fd35696740799854d1f0bfeb31a42fc2",
        "coords_eps5.csv":
            "58fd241eee5a57bc00fbbad874e77e50667d5f6edb305b0b3c934483477a2662",
        "evidence.csv":
            "4d27fd2b9bede10edf6185075b92544074fda52a89b0b7ccbaf48362de060e03",
        "figures/convergence.svg":
            "e51adb68177615739dee14ea7fb8f4661ff5a32a136d20a05e769edbdc588d0e",
        "figures/trajectories.svg":
            "a6bc9c55c239b9a995007a73107d21bcd00d5f28a655703cba31f714f41ead0f",
        "figures/violation.svg":
            "7d886c03303eb0a82182312e2df8b57ff365463a987b779f1715780de5a1c685",
        "limit.csv":
            "74ae002a44d8c9e3e0e8fd5577bf974b8f9ff491c8509858eeddddf06a6b7524",
        "report.json":
            "f575ddbf6917751a850d05fb0bdf23cf807619430b6b65c8afe9dafe13b4a664",
        "traj_eps0.csv":
            "9879e9164d65caac7d0fee7c44f1b23afa7072f44cb6dce85b09ed584e35024f",
        "traj_eps1.csv":
            "52b0b64fd55fcc6e7af5ac3974a1d3b80082a97e0deeb7ff5399e740d68863ba",
        "traj_eps2.csv":
            "ac191463c42a3a0064babafa3aa16def1383d18e431d43942bbd740a9bc8bfc5",
        "traj_eps3.csv":
            "305b6a3b0eb304f6129e8b3bdccb593a8bc7e26daa7e59bd7ae5819d39ddd1aa",
        "traj_eps4.csv":
            "28999af247cb9ec41d39fe224ea7d517208d1c41ab400b1ad764b43a1f04b101",
        "traj_eps5.csv":
            "c89217a4f4b8ad1c8fe8b2ee49b1ca072e853c0193f4af2e66fb71362baae079",
    },
    "gutter": {
        "coords_eps0.csv":
            "8be8a4f6cf613ca72b5265d1defbb0ee3102b14898b195d268beb17812e22c12",
        "coords_eps1.csv":
            "d02729dc30a73ad9fa461afc0b69de341394f9ccc21e535a59e2403cf1d7ac56",
        "coords_eps2.csv":
            "d02729dc30a73ad9fa461afc0b69de341394f9ccc21e535a59e2403cf1d7ac56",
        "coords_eps3.csv":
            "d02729dc30a73ad9fa461afc0b69de341394f9ccc21e535a59e2403cf1d7ac56",
        "coords_eps4.csv":
            "d02729dc30a73ad9fa461afc0b69de341394f9ccc21e535a59e2403cf1d7ac56",
        "coords_eps5.csv":
            "d88e58df7e5a646c4b57d5c5b2a95502439c6d05995105fd3613480b146ae184",
        "evidence.csv":
            "6380aed6a7767b46ab45490b64313f313284ba5cb4b736b3954d846750a15dee",
        "figures/convergence.svg":
            "263e0d12d4ea66179aa4b3e68bf5b527dea38e388be3cffe8947a35dbc521298",
        "figures/trajectories.svg":
            "dde127bef6d522c71dcb5ee071ec31afda459f0e2456e0856aaaaa1a643d0c52",
        "figures/violation.svg":
            "2ebcb59181dcb456d6fb742148ab57ba934e62fef28aebb83f60d1e4dc154f4d",
        "limit.csv":
            "36e62eebc0b2c385fb5c53a3a7f819740a98134bc29d65ef354de0b5df1ce47a",
        "report.json":
            "3d8614f17d2c7b797d3c8d8f1d81fe1efd02eef553a8b144f1bfa47b06a665ee",
        "traj_eps0.csv":
            "c1ce983cc2067bdd9df33faf59583fb62d6673e33276c7d91ca2e0b3df0cceaa",
        "traj_eps1.csv":
            "1e63ca0a370d925ae4c3b3519706dd8b420b87f94620120e70f135596ff50090",
        "traj_eps2.csv":
            "1e63ca0a370d925ae4c3b3519706dd8b420b87f94620120e70f135596ff50090",
        "traj_eps3.csv":
            "1e63ca0a370d925ae4c3b3519706dd8b420b87f94620120e70f135596ff50090",
        "traj_eps4.csv":
            "1e63ca0a370d925ae4c3b3519706dd8b420b87f94620120e70f135596ff50090",
        "traj_eps5.csv":
            "8ceed2ad581aecb005ec3590dbd6d5277964769c652673281c874f9ffe5443f5",
    },
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_DIGESTS))
def test_every_artifact_is_unchanged(tmp_path, name):
    scn = fv.parse_scenario(os.path.join(SCENARIOS, f"{name}.json"))
    assert fv.run_pipeline(scn, str(tmp_path), svg=True).exit_code == 0
    digests = {path.relative_to(tmp_path).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.rglob("*") if path.is_file()}
    assert digests == ARTIFACT_DIGESTS[name]


# name -> (gallery arguments, sha256 of gallery_report.json), recorded once
# every record carried the dt and steps of its own run and painleve's probe
# stepped at dt = 0.1
GALLERY_DIGESTS = {
    "painleve": (["--name", "painleve"],
                 "f272056502330640c8f693e9b553b798fe7309e359e6098ca86537838c4086b3"),
    "painleve-horizon-100": (["--name", "painleve", "--horizon", "100"],
                             "97b93e29260c394bf956a2b342c9764f332f17874312a9cab17f3233647f02af"),
    "laloy": (["--name", "laloy"],
              "752a1ff7079628817b77446bc8b0eac4a555da2a83267a73801de4337da31c47"),
}


@pytest.mark.parametrize("name", sorted(GALLERY_DIGESTS))
def test_gallery_report_is_unchanged(tmp_path, capsys, name):
    argv, digest = GALLERY_DIGESTS[name]
    assert cli.main(["gallery", *argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "gallery_report.json").read_bytes()).hexdigest() == digest
