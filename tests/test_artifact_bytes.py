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
# substeps (the circle's bytes did not move), and members 0 to 4's files,
# the evidence and the report (with the gutter's two rounding-level
# figures) when every member probed at the probe call's longest row, and
# the ellipsoid's and gutter's report.json (only its recorded ceilings)
# when the ceilings followed the probe's rho^(2/k) law, and the
# ellipsoid's coordinates, limit and report (cells by at most 6.1e-16) when
# position reads flowed at FLOW_COARSE_STEP, and the circle's and the
# ellipsoid's coordinates, limit and report (cells by at most 1.0e-15)
# when position reads dropped their floor of 8 substeps, and the
# gutter's and the ellipsoid's member files when the backward halves
# stepped at -dt from (p, v): a zero velocity cell of a backward node (the
# gutter's v0, the ellipsoid's v2) prints 0 instead of -0, every value
# equal, and every report.json when it came to state each fact once: the
# duplicated keys left it, every other key and value kept its bytes, and
# again when coordinates.sup_r left it (convergence.violation_max states
# the same numbers), and again when its scenario block became a scenario
# file: the potential's parameters flattened into it, min_eps added and
# the integrator moved into the family block, every number and every other
# file kept its bytes
ARTIFACT_DIGESTS = {
    "circle": {
        "coords_eps0.csv":
            "208f2c04b42263aa593f3c46fbf28b1524b0a893b6c5f279446ff1bcf9a437ef",
        "coords_eps1.csv":
            "519f1c7d84d6446741f690e3322d212d7402bcd56f81dda2a740eea74845172d",
        "coords_eps2.csv":
            "b8715021bd3d401246811b526617c30a1f4db00698758ad60c491bd3d01b2371",
        "coords_eps3.csv":
            "d78f9e13041bc2f9842ababaa7113fafd7016494f030a6a5bd002a3bd58ea366",
        "coords_eps4.csv":
            "47edc74f90e0f7e4a66aefc4e63055cf29e1b11ee3029b13a0376742942f69fe",
        "coords_eps5.csv":
            "00fe5785daa8f2d8d6d8a0472ba6041f8837e5e9406582b448a86a98acf8e535",
        "evidence.csv":
            "9be823da60c373d5fc0167e9eaab1583363a02f968c15b884105540de7731435",
        "figures/convergence.svg":
            "f9a1b57df101cfcc35de9652a7d0413c53a0ab00e883e1e7f738e51835a002dc",
        "figures/trajectories.svg":
            "d45a9a668a75dbfa004c71d17a14ccec7a2a600c506de5183e2a09f7231de6de",
        "figures/violation.svg":
            "394a1eec44255e4b847719e1520358e5c274857bcf2569612ff23d78276b48d9",
        "limit.csv":
            "8d4a6c84ca4d99f85bbd5b2b99d26bdf8240d46b281514d0a3a354446e215d41",
        "report.json":
            "7ec205931c545fe24f46794e4593a00b390b1bca36a72b818b9278c691e2e3b3",
        "traj_eps0.csv":
            "aca6f1daef4bc0686d3f23f45fac4eeb5eb2294938ab7388c68e76bdda08a797",
        "traj_eps1.csv":
            "02405346101d4a3103696010ffe8b297fa2ff49e48ceacf93b6b8490cb438092",
        "traj_eps2.csv":
            "eb60dd198d370a91a9773156858b8fa75a32f056284f23092d83d4be85b73f06",
        "traj_eps3.csv":
            "cb4d547ac50ea05fd1f5da94321167678c594a64ef2cb3b066602df3dca966ba",
        "traj_eps4.csv":
            "198a8ec85df2e22dcac547f8f1d60195fdbfcc2138ff286494de0a34d58fda9e",
        "traj_eps5.csv":
            "e60765c0145e33c3c503858a8f58ea6cffa30ebc8e61379556ec7cd7daf34993",
    },
    "ellipsoid": {
        "coords_eps0.csv":
            "c35c51e4e79eb04fed3770e1c5b5f4b27b8c87de874ed308622f07b0c10bf4a0",
        "coords_eps1.csv":
            "8625f52befa9ae3dea81a3ac87f0dcfc314cdc197c13a18f530d06c8e483006c",
        "coords_eps2.csv":
            "858114ccf4b31e0e6165514e563c13e2c3c775435137c7131b3b793cc0122c55",
        "coords_eps3.csv":
            "6cad830b86b323a42430d1f6b4be37cf72fb4793cce35d70ae76072568ad0fa3",
        "coords_eps4.csv":
            "5bc117ea6a0e0ddf899b2f9b7ab1bf056b569591d8f94a7ce5952bc6f815b9af",
        "coords_eps5.csv":
            "af16457a36e8dcb9c3124e238324dfeb4e82ab5ee70c590f994ed91f0035dd09",
        "evidence.csv":
            "fcb550aec5ba1fd80629c66dd466334bfa498cfe90e98d59db8ffbbf50aa2167",
        "figures/convergence.svg":
            "e51adb68177615739dee14ea7fb8f4661ff5a32a136d20a05e769edbdc588d0e",
        "figures/trajectories.svg":
            "a6bc9c55c239b9a995007a73107d21bcd00d5f28a655703cba31f714f41ead0f",
        "figures/violation.svg":
            "7d886c03303eb0a82182312e2df8b57ff365463a987b779f1715780de5a1c685",
        "limit.csv":
            "43cf8f26fa442cbaecde1682267b1ef6e3fc19cb7d7f23864cf9e1cdfb81549e",
        "report.json":
            "986899af7fdc197c544130e0d6b66bc5b38a7c99c70de683e5557ed8b66306a6",
        "traj_eps0.csv":
            "dab30dfdc16df37c4eedc6668c7c16b2008830a96f58cad08f3962868397a96a",
        "traj_eps1.csv":
            "23c74100b7aca0ae30510a99e073d4b9c482b385f39425b4faae5a4d330fa18a",
        "traj_eps2.csv":
            "f226f393a859f1364a0a83bcb73cee74b44e4d43f03589e8ceb36355e5ba77a2",
        "traj_eps3.csv":
            "c3e4d64b0c669cb18ddb5e5582b364a0e939e63cb282982f35e3be490e2506c4",
        "traj_eps4.csv":
            "81ebf35b9321f199b9391c2855d413e18b3c5fc80f03c6635c5cb6f04d42534f",
        "traj_eps5.csv":
            "f3f0237962ceaa64136f49fafd362156a2beea930d98ad35827f4f1163b26fed",
    },
    "gutter": {
        "coords_eps0.csv":
            "d88e58df7e5a646c4b57d5c5b2a95502439c6d05995105fd3613480b146ae184",
        "coords_eps1.csv":
            "d88e58df7e5a646c4b57d5c5b2a95502439c6d05995105fd3613480b146ae184",
        "coords_eps2.csv":
            "d88e58df7e5a646c4b57d5c5b2a95502439c6d05995105fd3613480b146ae184",
        "coords_eps3.csv":
            "d88e58df7e5a646c4b57d5c5b2a95502439c6d05995105fd3613480b146ae184",
        "coords_eps4.csv":
            "d88e58df7e5a646c4b57d5c5b2a95502439c6d05995105fd3613480b146ae184",
        "coords_eps5.csv":
            "d88e58df7e5a646c4b57d5c5b2a95502439c6d05995105fd3613480b146ae184",
        "evidence.csv":
            "3021bfefa650295befebf69d9ede7e0b13cc468b42e2bbf9a581d23e2a00f76c",
        "figures/convergence.svg":
            "37b3f5722d91378add02f32e16501926fee50576844b669f82d013ac32faf2b6",
        "figures/trajectories.svg":
            "44ebe9341e0ca054d1def0b2000c5d1f555330f21d7eaf1eada4a80f516dd5f7",
        "figures/violation.svg":
            "2ebcb59181dcb456d6fb742148ab57ba934e62fef28aebb83f60d1e4dc154f4d",
        "limit.csv":
            "36e62eebc0b2c385fb5c53a3a7f819740a98134bc29d65ef354de0b5df1ce47a",
        "report.json":
            "878ca39db31bc46c42e9ca1bed4161beb2a623a1a65bb70f82ea6808e3f00368",
        "traj_eps0.csv":
            "40a6e542175f60971c14916d270a4c662fb3086225b78a7ec0f843ecf0daf957",
        "traj_eps1.csv":
            "40a6e542175f60971c14916d270a4c662fb3086225b78a7ec0f843ecf0daf957",
        "traj_eps2.csv":
            "40a6e542175f60971c14916d270a4c662fb3086225b78a7ec0f843ecf0daf957",
        "traj_eps3.csv":
            "40a6e542175f60971c14916d270a4c662fb3086225b78a7ec0f843ecf0daf957",
        "traj_eps4.csv":
            "40a6e542175f60971c14916d270a4c662fb3086225b78a7ec0f843ecf0daf957",
        "traj_eps5.csv":
            "40a6e542175f60971c14916d270a4c662fb3086225b78a7ec0f843ecf0daf957",
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
# every record carried the dt and steps of its own run and every probe
# stepped at dt = 0.2 on one interior output node, at t/2
GALLERY_DIGESTS = {
    "painleve": (["--name", "painleve"],
                 "f6ff6a62c1484e4dcf39cf2771c43739215689f0f5c5edd64aee103faa102611"),
    "painleve-horizon-100": (["--name", "painleve", "--horizon", "100"],
                             "6b14c601c213c32d0d6bd9be141efffbdc78afa94a77fce8047665e42ab1e1a2"),
    "laloy": (["--name", "laloy"],
              "e36d012ce2a72f3d3c7559a9da804f2ab5a6d6be840c4b54ed7f52f8f97ad2af"),
}


@pytest.mark.parametrize("name", sorted(GALLERY_DIGESTS))
def test_gallery_report_is_unchanged(tmp_path, capsys, name):
    argv, digest = GALLERY_DIGESTS[name]
    assert cli.main(["gallery", *argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "gallery_report.json").read_bytes()).hexdigest() == digest
