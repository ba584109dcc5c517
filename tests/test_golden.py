"""Golden hashes of report bytes: the same inputs must keep giving the same bytes.

Each entry is the sha256 of `report_to_json` for one scenario at defaults and
one seed, plus two `sweep_to_csv` hashes at seed 0: `dicke_tray_spoon` over
l_spoon=0.1:0.01:20 (window projections on 4096- to 32768-point grids) and
`weak_ensemble` over g=0.5:1.5:10 at n_shots=1000 (pointer sampling at ten
kicks, the sweep the benchmark's weak_sweep workload runs).

A hash may change only in a change whose CHANGES.md entry says which entries
moved and why. To print the current hashes:

    PYTHONPATH=src python -c "import tests.test_golden as g; g.print_hashes()"
"""

import hashlib

import numpy as np

from ketsim import run_scenario
from ketsim.report import report_to_json, sweep_to_csv
from ketsim.scenarios import catalog

SEEDS = (0, 7)
SWEEP_KEY = "dicke_tray_spoon/sweep l_spoon=0.1:0.01:20"
WEAK_SWEEP_KEY = "weak_ensemble/sweep g=0.5:1.5:10 n_shots=1000"

GOLDEN = {
    "qo_core/0": "8bc71448c53d50780f9a828bf93503901efc51e3930a161fe4a1e08f82cf61fc",
    "qo_core/7": "543f7f0df11b2ee71410a38b8886a6939b8a1fdbd155f11596b9ef5396955bfd",
    "hardy_ci/0": "5299971cca7c91325e8ca11a84eed60e26e53fa481ae3f58cd7bacd8de385ecd",
    "hardy_ci/7": "5ec6a96fdbb4c0d5e21a7f41860dbee4aea850a960d7d2fa56df6dfcf6f0fd87",
    "atom_collision/0": "a89ac78184027c502ebbf57844278fdfddf5b10d2a2f2da7508995a46edb42fc",
    "atom_collision/7": "7eae15d4f124176b48ed0d38eed55c4af7eab9e9a96824ce2697f8e68f944774",
    "oblivion_with_pointers/0": "03e5fddee258c744e9af8d38573ef5c662ddeb18572c3766b9fa4de4eebf682e",
    "oblivion_with_pointers/7": "8e65c82059648d936a82a587cfae2f946dd0452465397f1a28e2392bbbfbb7c2",
    "zeno_basic/0": "393e208dc581226046e57dbea38067c9e6f41b28527cfd9bc5164e6857f61d78",
    "zeno_basic/7": "ea4305706251bd6eac66d745b4db6f6e439336929ebde69b348a0ce7839d7746",
    "zeno_counterfactual/0": "d2ff455179bfd16a1878ddecee36556628390e7842f919238e727c03b82d0a10",
    "zeno_counterfactual/7": "6022119d32154c332a80e0c7f7d9dbd9186f7c87bedebbb9e7cf322da86c9670",
    "zeno_ghost_entanglement/0": "309b764da4f4f7e0b71de628bcffb1e15fbe686552af6788234e6283ad6927e2",
    "zeno_ghost_entanglement/7": "568a13d619229c30ac0e12870350c2db6fd3eb2515d839ced9c2d4f0247222fa",
    "partial_erasure/0": "384eed4f95e0a942c30d195e7af63471a2e24bbc676f2440dd8d5c4b5764168d",
    "partial_erasure/7": "a004f28980f0ef54a9be631cea2e2bbd0718fd3a56bdd53f44d2650d2fea83f3",
    "weak_ensemble/0": "d81421098d9f0f349efda15144e967c99e788401d0991a1364d57ae098c566da",
    "weak_ensemble/7": "9248aa64719bbea17035f609ee6b1d58161eb2f9b1f2c3640e5fa0555e5098af",
    "quantum_erasure/0": "896296c5cd628772dbfa12ef892264e4080a5aae141e98e34c8b1918b8efbe72",
    "quantum_erasure/7": "7fd0797443529d167ac4ddaf4f995bf867d04970eb384aaa7e8656f31d804c6f",
    "ghostly_mirror/0": "a1d694635f7ba85a0d9227f43e990c53729d7a33dbe7306f995921d9ad00d209",
    "ghostly_mirror/7": "2722855f35916bc30782073e0d569773ecbb28f8cf385760eae192245e8da748",
    "dicke_tray_spoon/0": "1e91674394e8d57678285aa726033bed25d0b57f4c3325a324ff66ddff0f27a4",
    "dicke_tray_spoon/7": "06110cdf7fa6cc451dc160ef3c15fddcc1995d428554dfa232cdc490492ca84e",
    "ab_toy/0": "fca1df844e15b44fa867774aac1f9bdff7d5c48c050b987c65de256d3172d705",
    "ab_toy/7": "ac92f4893ec99972ddf3a6c49a447a4eb7de6dadbdaa573a8fd9fecf9f8aee3f",
    "dicke_tray_spoon/sweep l_spoon=0.1:0.01:20": "75d0ce6a8ba61a11ff5c63ed2f872a8dd07abbd24975d0bc4bba844789a12a6b",
    "weak_ensemble/sweep g=0.5:1.5:10 n_shots=1000": "f06bc445be37e0398852637782b231171b6d0d0d81bb958377d0eda7cab97287",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def current_hashes() -> dict[str, str]:
    out = {
        f"{name}/{seed}": _sha(report_to_json(run_scenario(name, seed=seed)))
        for name in catalog()
        for seed in SEEDS
    }
    points = [
        (float(v), run_scenario("dicke_tray_spoon", {"l_spoon": float(v)}))
        for v in np.linspace(0.1, 0.01, 20)
    ]
    out[SWEEP_KEY] = _sha(sweep_to_csv("l_spoon", points))
    weak = [
        (float(v), run_scenario("weak_ensemble", {"g": float(v), "n_shots": 1000}))
        for v in np.linspace(0.5, 1.5, 10)
    ]
    out[WEAK_SWEEP_KEY] = _sha(sweep_to_csv("g", weak))
    return out


def print_hashes() -> None:
    for key, digest in current_hashes().items():
        print(f'    "{key}": "{digest}",')


def test_report_bytes_match_golden_hashes():
    now = current_hashes()
    moved = [
        f"{key}: {GOLDEN.get(key)} -> {now.get(key)}"
        for key in sorted(set(GOLDEN) | set(now))
        if GOLDEN.get(key) != now.get(key)
    ]
    assert not moved, "report bytes moved:\n" + "\n".join(moved)
