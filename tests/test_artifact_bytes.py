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
# and every file but some figures when each member's substeps came from
# its gates (a probe call and one re-run) instead of a fixed factor
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
            "2050a256bb3402bf069c1091b6654e790197243a050b56e5fea6254919f78914",
        "coords_eps1.csv":
            "4a35aa739cd5c40228a05b97f8466f02b0a3496130d526993970171cbd2fd532",
        "coords_eps2.csv":
            "829bb7afa348410139fee66ab54e07b7853f19ed1bf68c369472c28c39b4d5d7",
        "coords_eps3.csv":
            "3af93a4b4c397011427c55a44a00c7b21b11d98aeddfcb671fad25a8f3a95f53",
        "coords_eps4.csv":
            "fe578d53e3eb6a800aabb254a41b4db04b81fb46c2d0246700038a55feea6128",
        "coords_eps5.csv":
            "6c8e28894cfe0279dfedb8031006fca0ea77b298a82b66582ad3fb19ed56d0cd",
        "evidence.csv":
            "452415ba0e63e7640b202373b2157d53aff366d712aeb9025f22571089b6bcb1",
        "figures/convergence.svg":
            "e51adb68177615739dee14ea7fb8f4661ff5a32a136d20a05e769edbdc588d0e",
        "figures/trajectories.svg":
            "a6bc9c55c239b9a995007a73107d21bcd00d5f28a655703cba31f714f41ead0f",
        "figures/violation.svg":
            "7d886c03303eb0a82182312e2df8b57ff365463a987b779f1715780de5a1c685",
        "limit.csv":
            "c5033c9333f1166f6453e0ef6d88cd66b1b467bebfc2f6625f0ccca24d94807a",
        "report.json":
            "2a6c5b6e344e42133797b60bd62c3f5c830af1572e87e7b1a462c2f3098db031",
        "traj_eps0.csv":
            "9879e9164d65caac7d0fee7c44f1b23afa7072f44cb6dce85b09ed584e35024f",
        "traj_eps1.csv":
            "52b0b64fd55fcc6e7af5ac3974a1d3b80082a97e0deeb7ff5399e740d68863ba",
        "traj_eps2.csv":
            "ac191463c42a3a0064babafa3aa16def1383d18e431d43942bbd740a9bc8bfc5",
        "traj_eps3.csv":
            "6d5f8680e968da9a05d780089ec55b57585279047af6194e9661682b40d538b0",
        "traj_eps4.csv":
            "0225736eb22bb36845e14ce588e98facfcc33dd96288ff2910ce363ca6f5cfe3",
        "traj_eps5.csv":
            "bdf09e5b141c7fdfaf1bdddc0836f02759b96b17f76371382cc617a49e56b6cf",
    },
    "gutter": {
        "coords_eps0.csv":
            "8be8a4f6cf613ca72b5265d1defbb0ee3102b14898b195d268beb17812e22c12",
        "coords_eps1.csv":
            "d02729dc30a73ad9fa461afc0b69de341394f9ccc21e535a59e2403cf1d7ac56",
        "coords_eps2.csv":
            "d02729dc30a73ad9fa461afc0b69de341394f9ccc21e535a59e2403cf1d7ac56",
        "coords_eps3.csv":
            "d88e58df7e5a646c4b57d5c5b2a95502439c6d05995105fd3613480b146ae184",
        "coords_eps4.csv":
            "2983ec4cacd0b5cf9edc3ac2f3e0a79eb14d07c4172d607bc21bb041acdce4d7",
        "coords_eps5.csv":
            "0761f44255bacb9392c3688f6372c0c81824eb5887e726cb3a740b043a9c5a9d",
        "evidence.csv":
            "395fded1cdbc061a1f2a2be57ae531eb710fd505d7281f915596040b5b6d6f90",
        "figures/convergence.svg":
            "dae0de387bdfd929cd7517bd198f3f1a83a232a3631d1234efc1053e18c50f0d",
        "figures/trajectories.svg":
            "2da33c10761e2071c37845a94d2f57a56c1644cde2e58e77f89f9024afaa2769",
        "figures/violation.svg":
            "2ebcb59181dcb456d6fb742148ab57ba934e62fef28aebb83f60d1e4dc154f4d",
        "limit.csv":
            "d70cf1fce50ef3057c78ddf46ff37371dc8b64233f17fd1718ee0c9d62bf399b",
        "report.json":
            "3c3458d131e612846287b19596cd040bf265535e1ff3296aa8b9b6c5f34f2774",
        "traj_eps0.csv":
            "c1ce983cc2067bdd9df33faf59583fb62d6673e33276c7d91ca2e0b3df0cceaa",
        "traj_eps1.csv":
            "1e63ca0a370d925ae4c3b3519706dd8b420b87f94620120e70f135596ff50090",
        "traj_eps2.csv":
            "1e63ca0a370d925ae4c3b3519706dd8b420b87f94620120e70f135596ff50090",
        "traj_eps3.csv":
            "8ceed2ad581aecb005ec3590dbd6d5277964769c652673281c874f9ffe5443f5",
        "traj_eps4.csv":
            "cab3ecaf3081ec6c832a352bf65893290c760f86b61d6c04bae8a2fa03d408db",
        "traj_eps5.csv":
            "3279ae339a8379a19f803180e0ab4e9194b9b5a1b55be66b93f387666561c619",
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


# name -> (gallery arguments, sha256 of gallery_report.json), recorded before
# each potential's force kernel was bound once and the PEFRL step written out
GALLERY_DIGESTS = {
    "painleve": (["--name", "painleve"],
                 "89aa0e531d5bcbfd15da34d4f092b1156197b9e680cb4cc4d10cc0e5deac5fe6"),
    "painleve-horizon-100": (["--name", "painleve", "--horizon", "100"],
                             "9be51cacebbd8458b35b20e65d27cf108e41786649658ceb29b9de74a18a3ef5"),
    "laloy": (["--name", "laloy"],
              "14f0ea9865ce5936d95671310a6b6af93e86be852f4a030f16bb93d44f4c9868"),
}


@pytest.mark.parametrize("name", sorted(GALLERY_DIGESTS))
def test_gallery_report_is_unchanged(tmp_path, capsys, name):
    argv, digest = GALLERY_DIGESTS[name]
    assert cli.main(["gallery", *argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "gallery_report.json").read_bytes()).hexdigest() == digest
