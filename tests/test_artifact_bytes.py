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
# file kept its bytes, and the member and coordinate CSVs when each value
# came to be written once: the member files lost their H column and the
# coordinate files their tau and r columns, every other cell kept its bytes
ARTIFACT_DIGESTS = {
    "circle": {
        "coords_eps0.csv":
            "992462f8a8fe50d2e25b39ca52a768e6bed71d19d3555c029b9391199a2b5724",
        "coords_eps1.csv":
            "45ea5aa851e77ed8d858bf3ff4e8fe3221d0f7c990148566d2568eb95ff9022a",
        "coords_eps2.csv":
            "0cabc3ff53ebf4a18ebddbfe88763415e3835a0df2a04d81d83cec635b07d064",
        "coords_eps3.csv":
            "b0a147eb679cdda3f3b31d57dfa28a2d3841fc06853dbe56e728b07bef7c96de",
        "coords_eps4.csv":
            "33b41517d5a8befccca2dd6204377d36ec16996d865dde8a9022c835a93b6f68",
        "coords_eps5.csv":
            "ae72a22e9157cdf48b330c55154247a9cb3a23d7c27ab910502ad78e2656e62a",
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
            "329704ce3ac2fe25c6301216cd300509aa5d5607e5fbbf3695aeeae3144f22c6",
        "traj_eps1.csv":
            "c019b47260738108df5010f556d4a04eb2a81f6f8bb2a26cd47344749715af94",
        "traj_eps2.csv":
            "21d252a2f3e5dd4feb9842c44b054b9d256e9dfc29e7b07f40b56b75b4df2ebd",
        "traj_eps3.csv":
            "bc612f8414254e193598984bfd163eb0a224e626be1503198578b631b2e8c359",
        "traj_eps4.csv":
            "9539c255ef6aef8f75772dab64893ee6eec390f0dba62f71b768683e6072eb03",
        "traj_eps5.csv":
            "93ca2d74efacc26367cba2d5c1238bf1595b8194065fc72b5dca68580a9c62dd",
    },
    "ellipsoid": {
        "coords_eps0.csv":
            "c131d2809292e7684400e42dc8e5bc3006cce569f1a59688cf233193295fa164",
        "coords_eps1.csv":
            "c0f7d6da682d9b8e467506e2538ce1c9f4c5456d64df3f3f48cf0f0c63b168a7",
        "coords_eps2.csv":
            "19c92a5d99ed4c7625037505413a1e37d1aa2d66ec972afc3fb3a0229099bb5e",
        "coords_eps3.csv":
            "f3dcf38ff0ba30300d276dee4bbf3cc674890adf2a108740dea3cce18d3cc72a",
        "coords_eps4.csv":
            "51d006d71670d9dc39f7019550343f889506f1c382c8cff319c628a74c0341bd",
        "coords_eps5.csv":
            "a5b490db6e1045228cf2dd84b45d33c7cdc40b527dbbb626d857b92ddd56d616",
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
            "4df7311fdb19df74b6f0a9a837f37b6c8503c6d72b154e0463369b9910d8c212",
        "traj_eps1.csv":
            "78f6bb2602d0b9bf3b61c689451d491ac48c18b7d84798c63fe151a653404d00",
        "traj_eps2.csv":
            "3d4ad9591f0687fc0a7c2642c6d31fe48eb182d24302be981735431d457ea714",
        "traj_eps3.csv":
            "fbcc2f4a05a3882fa9a781c7c78a709bf137b32e09a7b07ebfda03a3c55cc430",
        "traj_eps4.csv":
            "c10d84e26bf10fa489b4320506c737d089e72f2e8e4b77df58f646ed9bee0b72",
        "traj_eps5.csv":
            "f766c2e0a63512ce9521b03a1dfaa2e7dec3ab66200df4a87b3c1c8071608b5d",
    },
    "gutter": {
        "coords_eps0.csv":
            "f8a7a03cba7917fc1dad40a4659d006af86c92a6d6bedb94c0ae9c975f264f00",
        "coords_eps1.csv":
            "f8a7a03cba7917fc1dad40a4659d006af86c92a6d6bedb94c0ae9c975f264f00",
        "coords_eps2.csv":
            "f8a7a03cba7917fc1dad40a4659d006af86c92a6d6bedb94c0ae9c975f264f00",
        "coords_eps3.csv":
            "f8a7a03cba7917fc1dad40a4659d006af86c92a6d6bedb94c0ae9c975f264f00",
        "coords_eps4.csv":
            "f8a7a03cba7917fc1dad40a4659d006af86c92a6d6bedb94c0ae9c975f264f00",
        "coords_eps5.csv":
            "f8a7a03cba7917fc1dad40a4659d006af86c92a6d6bedb94c0ae9c975f264f00",
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
            "ddb58c8a5c4c30ad7063852f4cef807bb893f3e594ccc2d680e31406fec8a21d",
        "traj_eps1.csv":
            "ddb58c8a5c4c30ad7063852f4cef807bb893f3e594ccc2d680e31406fec8a21d",
        "traj_eps2.csv":
            "ddb58c8a5c4c30ad7063852f4cef807bb893f3e594ccc2d680e31406fec8a21d",
        "traj_eps3.csv":
            "ddb58c8a5c4c30ad7063852f4cef807bb893f3e594ccc2d680e31406fec8a21d",
        "traj_eps4.csv":
            "ddb58c8a5c4c30ad7063852f4cef807bb893f3e594ccc2d680e31406fec8a21d",
        "traj_eps5.csv":
            "ddb58c8a5c4c30ad7063852f4cef807bb893f3e594ccc2d680e31406fec8a21d",
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
