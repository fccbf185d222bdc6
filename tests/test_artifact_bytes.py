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
# when the ceilings followed the probe's rho^(2/k) law
ARTIFACT_DIGESTS = {
    "circle": {
        "coords_eps0.csv":
            "4149e4ae04ccc1d8f62fba28333a7870fdfff6911453f2d97b2e68f2351ea430",
        "coords_eps1.csv":
            "5123d19880765011c6ddf66fe547010a033a6adea3459c9ca0c0d15addba0633",
        "coords_eps2.csv":
            "9fabcb44d4e4a1fd51c765d591ff3e23a8c6e9fb848f8ab4a8ef2a991e0ce174",
        "coords_eps3.csv":
            "8d2d43cec40c1c3d80319091b4401db3c0f3e43c9bdef2bcd2c58805b3406a2b",
        "coords_eps4.csv":
            "67ec804d59763a69734b603426c0cf3fb122218e38fea2201636991a4065c18b",
        "coords_eps5.csv":
            "fc2769739b9a4b32afd377153b2e5f11083a54110a208955af2e912c6fae203f",
        "evidence.csv":
            "9be823da60c373d5fc0167e9eaab1583363a02f968c15b884105540de7731435",
        "figures/convergence.svg":
            "f9a1b57df101cfcc35de9652a7d0413c53a0ab00e883e1e7f738e51835a002dc",
        "figures/trajectories.svg":
            "d45a9a668a75dbfa004c71d17a14ccec7a2a600c506de5183e2a09f7231de6de",
        "figures/violation.svg":
            "394a1eec44255e4b847719e1520358e5c274857bcf2569612ff23d78276b48d9",
        "limit.csv":
            "e1d71c9f6be8dcfeae687a468ff23e055d230840a486fd66ece14991756c3bd3",
        "report.json":
            "202751a123adff65e8ec1c2ca4f2902306a2c4711bf26c8924e42ce6ae41bade",
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
            "b2e8e15acc68685bf770983a448f61a4746080f58f65a759a4b2acb49c48cfc0",
        "coords_eps1.csv":
            "efe6a0452b38ae48e8b02886e9381928d87aeb82403d317b4805d6ee82d9cd4e",
        "coords_eps2.csv":
            "153fb59a516c6f942fa5f195cebc9396e7c8d6280c36b7288e0333cd11808577",
        "coords_eps3.csv":
            "a96fd56c96a66c9e7b8c7366bb30b7712817297ff498502f9474e9d4d0ce7596",
        "coords_eps4.csv":
            "0dba588f71545ac204cd43fc6e695959dca34029d70d087818573cf460058e39",
        "coords_eps5.csv":
            "58fd241eee5a57bc00fbbad874e77e50667d5f6edb305b0b3c934483477a2662",
        "evidence.csv":
            "fcb550aec5ba1fd80629c66dd466334bfa498cfe90e98d59db8ffbbf50aa2167",
        "figures/convergence.svg":
            "e51adb68177615739dee14ea7fb8f4661ff5a32a136d20a05e769edbdc588d0e",
        "figures/trajectories.svg":
            "a6bc9c55c239b9a995007a73107d21bcd00d5f28a655703cba31f714f41ead0f",
        "figures/violation.svg":
            "7d886c03303eb0a82182312e2df8b57ff365463a987b779f1715780de5a1c685",
        "limit.csv":
            "74ae002a44d8c9e3e0e8fd5577bf974b8f9ff491c8509858eeddddf06a6b7524",
        "report.json":
            "c378378dde8debf659014ab9557964b004f36f45e6d83d96661db518bed1eacc",
        "traj_eps0.csv":
            "0810b3e8ea1db0253e9d124fab09cab0e3e993e7ef45657a02115b9f443cc851",
        "traj_eps1.csv":
            "e90863373e8ed667cb9fb00d709f4132eaf5cec08057aeb8d43231a542cd1d69",
        "traj_eps2.csv":
            "893f7050a0e05cf103bb469563bf93eea6f3377743408bac40fbbac526fd2d0e",
        "traj_eps3.csv":
            "6d5f8680e968da9a05d780089ec55b57585279047af6194e9661682b40d538b0",
        "traj_eps4.csv":
            "0336cf7a3d1fc96eef00466390ca1bb61ec298abd597aa64b4d0a5730bf86b6d",
        "traj_eps5.csv":
            "c89217a4f4b8ad1c8fe8b2ee49b1ca072e853c0193f4af2e66fb71362baae079",
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
            "8d0d119465ca3bad0597f98a0844b5bb4c1f438ec56512404f6f312cd48e24c1",
        "traj_eps0.csv":
            "8ceed2ad581aecb005ec3590dbd6d5277964769c652673281c874f9ffe5443f5",
        "traj_eps1.csv":
            "8ceed2ad581aecb005ec3590dbd6d5277964769c652673281c874f9ffe5443f5",
        "traj_eps2.csv":
            "8ceed2ad581aecb005ec3590dbd6d5277964769c652673281c874f9ffe5443f5",
        "traj_eps3.csv":
            "8ceed2ad581aecb005ec3590dbd6d5277964769c652673281c874f9ffe5443f5",
        "traj_eps4.csv":
            "8ceed2ad581aecb005ec3590dbd6d5277964769c652673281c874f9ffe5443f5",
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
