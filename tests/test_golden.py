"""Golden digests of the bundled configs' data files at ``--seed 7``.

Every data file starts with the manifest-hash stamp, so a digest here
covers the config echo and the package version as well as the numbers.
A change that moves any of these bytes on purpose replaces the digest and
says so, with the size of the move.  Only files that read the same under
one and two BLAS threads are listed: the fig4 family's ``entropy.csv``
takes its purity from a Gram product whose last bits follow the thread
count, so it is left out.  Its first four steps are in: ``fig4_head``,
perfbench's rotor-entangle config, whose purity boxes stay near
129 x 137 and whose files read the same under both thread counts.
"""

import hashlib
from pathlib import Path

import yaml

from kickres.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIRS = (ROOT / "configs", ROOT / "perfbench" / "configs")

GOLDEN = {
    "simulate fig1": {
        "entropy.csv": "7db5e27642baa9fa2b821d31cbd7f480e5dd8c9dce72da5850f3e97b88f5470f",
        "moments.csv": "ffc3bdfe2de72121d8e1de1e0a3702529394d70bfbf858eb13a2d0233ba6d92a",
    },
    "predict fig1": {
        "predicted_entropy.csv": "9e21f35018e0f7a8d1127431aa8083625aab0b87e1e63a8b877121e3e1c69176",
        "predicted_moments.csv": "91c93c2731b9978ea98f2c2710cc3343a89fcbdfbaa7066232e03d8abf3e072d",
        "report.yaml": "65297ba2093930007a6f6b2811ba53e0c0a9045034d6a8e282eaa8e9fb0fdc68",
    },
    "predict fig2": {
        "predicted_entropy.csv": "7113b5a9fd6d2862aed8f01ae0e36e22bd323b62dccd39d97f5884bfcf023ffc",
        "predicted_moments.csv": "781f6792eb2549d132f6b23497b14ac922bac5d3798928e9ceaa287be7262457",
        "report.yaml": "510c688d322c62ce3028767289e88fa68bd8ea81cc369870900f5d75e46331a3",
    },
    "classify fig3": {
        "report.yaml": "89247d9449fd84e4ca8c83486d27d5cd469158f9cee589d3de371e3bf8e85744",
    },
    "detune-scan fig5": {
        "delta_1.csv": "166bfb1b22c360c5981601b587823e21bcb17f3889d849636b42fbe9b73f5057",
        "report.yaml": "4eb26f027f5acfc0b29419d93be331c432992660021d0e05d015dde06c0da994",
        "tD.csv": "29e913c1c7fc790fd13526c15bd3b5e31f2941402ab2a2363b4681263a3f0cb7",
    },
    "simulate fig4_head": {
        "entropy.csv": "a8135a9c1bfc8bcecb58a392fd06fa23edcdde7cb66a15f5c4a150b74661756c",
        "moments.csv": "4a356e45a6c13a34d8d7578c585f9a65a8cdacaf8685fc235000e7936def6c18",
    },
    "predict fig2c": {
        "predicted_entropy.csv": "22d81e411a411bdc78d3b5d9ab3390a4e1b484fcd4dc2606a69122051d8975b7",
        "predicted_moments.csv": "10e88d060404d226ec455e202df973464f31c7105819423a640987b347071398",
        "report.yaml": "bb7613c3a25fe5b1a848f3d3de2e666ca821809d12447f9d919483d5a8c624d0",
    },
    "simulate fig3": {
        "entropy.csv": "1bf4ee1756ec8125afbe27fd840ab3829811f37593e1a4f51ebee7d90697376b",
        "moments.csv": "088d29d16e45053df74909ca2ac4cd2890a6926acabced181b0819031a5a775b",
    },
    "detune-scan scan3": {
        "delta_1.csv": "f74514f7ed23d42c75ca60653e29a8be69d38659042d99914eeaf7b95319cf6d",
        "delta_2.csv": "6ac094a5ee73b9bbf6f05c5b5f08dad903d29382305cd7c31b0a51923c3c1b39",
        "delta_3.csv": "84496c6d24877a3f5c414ef3c11f3a285c005df3c459148707f59aab911fa54e",
        "report.yaml": "b4c7e3f79417e38ff38af69a0eb045a7ed02fc41afba41a96551070c28c767cd",
        "tD.csv": "faeb92b5785acd45649b7a178cea91c7a5111aecd13432db5b9f7f3bcf9f07ba",
    },
    "top-simulate fig7": {
        "entropy.csv": "7733b45b4010d6d4c4f3246d78ebe3741b11aba2b227c94283a4cf2fa092a56f",
        "moments.csv": "af16ae75aab46a12430f795bb71d9466450a013aa69a6fee0f5f1bed4fca6162",
    },
}




def _fig1_body(**edits):
    body = yaml.safe_load((ROOT / "configs" / "fig1.yaml").read_text())
    body.update(edits)
    return body


def _one_rotor_body():
    body = _fig1_body(
        potential={"terms": [{"coefficient": 1.0, "modes": [1]}]},
        plan=[{"numerator": 1, "denominator": 2}],
        initial={"type": "momentum_eigenstate", "momenta": [2]},
        steps=30,
    )
    del body["bipartition"]
    return body


# Every bundled config starts from <p>_0 = <p^2>_0 = 0, so no digest above
# sees the -2 <p>_t <p>_0 + <p^2>_0 part of sigma^2.  These runs of edited
# fig1 bodies start off the origin; the one-rotor run also pins the
# one-body columns and the omitted entropy rows.  All read the same under
# one and two BLAS threads.
OFF_ORIGIN_BODIES = {
    "fig1 from [3, -2]": _fig1_body(
        initial={"type": "momentum_eigenstate", "momenta": [3, -2]}
    ),
    "fig1 coherent": _fig1_body(
        initial={
            "type": "coherent",
            "centers": [[0.5, 0.0], [1.0, 3.0]],
            "width": 1.5,
        },
        steps=20,
    ),
    "one rotor": _one_rotor_body(),
}

OFF_ORIGIN = {
    "fig1 from [3, -2]": {
        "entropy.csv": "415c3248d27f22a9344cff87d09c869207f9f36b4a5fe4fd95040d8b840cffa3",
        "moments.csv": "d55b4325f87531492cb6d19b84e2ebe17e2ef122ad7e1014bb4ebc6cf7891620",
    },
    "fig1 coherent": {
        "entropy.csv": "cf9dfaa410e55bb890071e6e0b348bf663c980998bf67506fd1a65d3bb695a81",
        "moments.csv": "d60e37a4b7b66248bed232e53388e27081493ea65bce10d2f2e059e6eeca6904",
    },
    "one rotor": {
        "entropy.csv": "e04e0090127e4aaf329fa33d4f6159dd590aa8530a0935129657fa68f24e5841",
        "moments.csv": "3f54367b9a12910e4632ff1bb0b210d5d775528f237cb2fea969c0cab6bed430",
    },
}


def _digests(command, path, out, names):
    argv = [command, "--config", str(path)]
    argv += ["--out-dir", str(out), "--seed", "7", "--quiet"]
    assert main(argv) == EXIT_OK
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in names
    }


def test_bundled_runs_keep_their_bytes(tmp_path):
    got = {}
    for invocation, files in GOLDEN.items():
        command, config = invocation.split()
        path = next(
            d / f"{config}.yaml"
            for d in CONFIG_DIRS
            if (d / f"{config}.yaml").exists()
        )
        out = tmp_path / f"{command}-{config}"
        got[invocation] = _digests(command, path, out, files)
    assert got == GOLDEN


def test_off_origin_runs_keep_their_bytes(tmp_path):
    got = {}
    for i, (name, files) in enumerate(OFF_ORIGIN.items()):
        path = tmp_path / f"run{i}.yaml"
        path.write_text(yaml.safe_dump(OFF_ORIGIN_BODIES[name]))
        got[name] = _digests("simulate", path, tmp_path / f"run{i}", files)
    assert got == OFF_ORIGIN
