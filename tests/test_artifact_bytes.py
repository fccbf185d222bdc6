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
# at about half its substeps, replaced its twin as the evidence, and
# report.json again when the coordinates stage's metric probe was removed
ARTIFACT_DIGESTS = {
    "circle": {
        "coords_eps0.csv":
            "4149e4ae04ccc1d8f62fba28333a7870fdfff6911453f2d97b2e68f2351ea430",
        "coords_eps1.csv":
            "3fd04b4e443a1d93efa99de15f5362a18accc012ee0f38241673136c3c4fb432",
        "coords_eps2.csv":
            "cf39fe087169001a8aed9878fdcd9652ee86c6be14dded4ac6fdd0c40d695767",
        "coords_eps3.csv":
            "cc524b3b6e574132a9f971306f15a39db691b55d1e78c4e15465e9846cb5ec79",
        "coords_eps4.csv":
            "a19b7b2460013f93b1e352a3effd8cde870468f006b1375bc1bef66a25ad0bef",
        "coords_eps5.csv":
            "a00a9465d3df87593e04de1efb7bbf8cf28eeb0760ec3f87530da277694e77da",
        "evidence.csv":
            "fde873488577a3ef1a6d55cee888c6b9038fca7a58a30dcde55a956519bae96b",
        "figures/convergence.svg":
            "f9a1b57df101cfcc35de9652a7d0413c53a0ab00e883e1e7f738e51835a002dc",
        "figures/trajectories.svg":
            "f02c3ff365b6705741a5f7d4960c97a0b949e9fb7aab01eeaaad5b3f130199e3",
        "figures/violation.svg":
            "311cc74fc756ffb0f46dc106e52c5dd54db996699de3de871ac28fbdff7e0a11",
        "limit.csv":
            "25bf83cb2a33adcb2acff9734194e3c6a4d99303e1554cf237aac12f61bd79f2",
        "report.json":
            "05b35bf3b4e79f715f77c48312e40daf54745e6a5b035fb9b68e7c509e0546d1",
        "traj_eps0.csv":
            "aca6f1daef4bc0686d3f23f45fac4eeb5eb2294938ab7388c68e76bdda08a797",
        "traj_eps1.csv":
            "f758c50cc9d977cdd757cde9b8825d8f0785ff4327a5722572ac329bd60a655a",
        "traj_eps2.csv":
            "76234661d5e5ce255ce960109ff767fe33fcef9f18a7b26a9da7d87a23b506ec",
        "traj_eps3.csv":
            "26e7024312dd1692a14f4e144ebe5d71efdc671f2b2737d80e19cc00140fc071",
        "traj_eps4.csv":
            "16047e20eab5fb9809b044f1d7f12595f7894d351803c2d667d39b47f220a65e",
        "traj_eps5.csv":
            "5044b5511b2cf044db563136376129d73f6ab49f6cf8deff5c6776135210ba03",
    },
    "ellipsoid": {
        "coords_eps0.csv":
            "6dfc0ccb1f6a3b805bcac39910558d8ee3081164beb960e27b7d7c36f0bfc8be",
        "coords_eps1.csv":
            "03cf534f2027a74abd0c5eeab8a4641ccd0bb5fa8e58ed8343061bc0eb6cecad",
        "coords_eps2.csv":
            "48c68a63fa1770ad1fc39a76c208b5cab3b390d044c4f9f2630f0e1e1e91e68c",
        "coords_eps3.csv":
            "a2f26fcfd411b9e128d93941e9a2d944f2900a57e85d7ddfbee101f7eddbc5f1",
        "coords_eps4.csv":
            "6c21701457d8b1d5865660ecba9a26c08244e5ffd95d85379f1f3ef23a27173e",
        "coords_eps5.csv":
            "b508d00c2ad3be50527f813d3bd6c9e326e3529e36b5cc4fabfdf4b8d400c50a",
        "evidence.csv":
            "66825644d0e89a51fecb2e9a94b251e7ec0774062ebe57a2e1b17ea3ec04406c",
        "figures/convergence.svg":
            "e51adb68177615739dee14ea7fb8f4661ff5a32a136d20a05e769edbdc588d0e",
        "figures/trajectories.svg":
            "a6bc9c55c239b9a995007a73107d21bcd00d5f28a655703cba31f714f41ead0f",
        "figures/violation.svg":
            "7d886c03303eb0a82182312e2df8b57ff365463a987b779f1715780de5a1c685",
        "limit.csv":
            "b9721ae2ef1c6adccb8b058efcc31981736a183109075ac4bae8eb2eb203ffa4",
        "report.json":
            "5f3fe1a2b66cdff1cd45a91a7a0212ac466a840dfaf5c0f074eee5353abcff63",
        "traj_eps0.csv":
            "0810b3e8ea1db0253e9d124fab09cab0e3e993e7ef45657a02115b9f443cc851",
        "traj_eps1.csv":
            "c20a9237da2f85fc04b5e08aaa2695ee0bc8eb33203472c2c4bca8c4bd0a046c",
        "traj_eps2.csv":
            "5e43ecc34aa74230a1210dfcd3dabca3c8662973f5acb9f9214fb44ec10c30a0",
        "traj_eps3.csv":
            "320e076d3859c8c3c35c1cc50ef32345bab3be1fbb79d4381888938b78e34faf",
        "traj_eps4.csv":
            "d25add427db0251f80ad6951d1465c8777b49a005a8dcf0a2282fc1281fcad53",
        "traj_eps5.csv":
            "1002174a8d0651e04d5ca82622ce14c2b7ceab050cc2a357d03b17f326632cb4",
    },
    "gutter": {
        "coords_eps0.csv":
            "8c57d7ebc8420834d094894b3ff5669c2af9a5abe7c3c9bcdaf06126e207d709",
        "coords_eps1.csv":
            "468b3932364d87d5dabb22be2e5a362b1c38521c16bed15c30b96c7a07e1bae8",
        "coords_eps2.csv":
            "3d0da96ce62baae4e2b3c9884d44e5137f663474e1c36e7049c9c564464f3b81",
        "coords_eps3.csv":
            "ba0d74ca5ba97e88ea8cd9e852d662af756b42f3d334f475409daab78c187734",
        "coords_eps4.csv":
            "1006665f50c4eb791d3b9485f2622d793a2a1557cefa5121259e4bff5c46dc78",
        "coords_eps5.csv":
            "c1fd4d2fbaa6e3d8875e3139e7abc3d47ebde69f40e889fd90fb12d79370e224",
        "evidence.csv":
            "85c0ce8b8fb573a6d04906bde8043485278ac9e22e3a6f67ec063df50646d2a7",
        "figures/convergence.svg":
            "f1ff7480aed3ceadb3360bbfc485524311da446859c8e63bb33a5b2edd55dbac",
        "figures/trajectories.svg":
            "2da33c10761e2071c37845a94d2f57a56c1644cde2e58e77f89f9024afaa2769",
        "figures/violation.svg":
            "2ebcb59181dcb456d6fb742148ab57ba934e62fef28aebb83f60d1e4dc154f4d",
        "limit.csv":
            "471198d968ebde8235bfcfa413fdc568a4b273c47c5fd7d232d01130fc7e0f5c",
        "report.json":
            "37c3041e644c5cb6e8d944a7078f570a00b54e9a6b8db77022f256d3bbe98007",
        "traj_eps0.csv":
            "0605bfeb9d294883f2bdc8302df206521dd25249634a51f5dcae33f1c39321b0",
        "traj_eps1.csv":
            "8b02e38ebf4867e8ba8ef605eeb4eb7cbf09355a2b51b5b36f236e092c24b6af",
        "traj_eps2.csv":
            "159ec7add609a7bb2c4c472c0f4ad220f8e1b97e7b3d7049b35ab117dc7505c9",
        "traj_eps3.csv":
            "5b2b0f46feba20fc4308bc77026423dd623dc5cf9658635247e4df8e23bf7ca3",
        "traj_eps4.csv":
            "3832893ae2ac0dac43ff1e121d24305737dce3f5927cc243c5a99b91dc268ce9",
        "traj_eps5.csv":
            "da550edbc15f349b5a7c43a31eaea3c39075da2d87d42dd1024d7c8d7060ff83",
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
