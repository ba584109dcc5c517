"""Golden hashes of report bytes: the same inputs must keep giving the same bytes.

Each entry is the sha256 of `report_to_json` for one scenario at defaults and
one seed, plus two `sweep_to_csv` hashes at seed 0: `dicke_tray_spoon` over
l_spoon=0.1:0.01:20 (window projections on 4096- to 32768-point grids) and
`weak_ensemble` over g=0.5:1.5:10 at n_shots=1000 (pointer sampling at ten
kicks, the sweep the benchmark's weak_sweep workload runs). One more entry
hashes the stdout of `ketsim sweep zeno_basic --param alpha=0.157:0.0785:3
--format json`, the README's sweep, which writes every point's report
through `report_to_jsonable`.

A hash may change only in a change whose CHANGES.md entry says which entries
moved and why. To print the current hashes:

    PYTHONPATH=src python -c "import tests.test_golden as g; g.print_hashes()"
"""

import contextlib
import hashlib
import io
import math
import sys

import numpy as np
import pytest

import ketsim.cli as cli
from ketsim import run_scenario
from ketsim.report import report_to_json, sweep_to_csv
from ketsim.scenarios import catalog

import numpy_baseline

SEEDS = (0, 7)
SWEEP_KEY = "dicke_tray_spoon/sweep l_spoon=0.1:0.01:20"
WEAK_SWEEP_KEY = "weak_ensemble/sweep g=0.5:1.5:10 n_shots=1000"
ZENO_SWEEP_ARGV = ("sweep", "zeno_basic", "--param", "alpha=0.157:0.0785:3", "--format", "json")
ZENO_SWEEP_KEY = "zeno_basic/sweep alpha=0.157:0.0785:3 --format json"

GOLDEN = {
    "qo_core/0": "aad8526d4e5294ab7718887a3461774322f69dd8b724e3ff310f9cbaca97e9d7",
    "qo_core/7": "44f5b1d6e6fe5564cde047ab6048a42204f637fe41a3c5c0c08a08bd61f4b91c",
    "hardy_ci/0": "618693610c08bf87b01ea5c9b5600025f50518e7ef2bcca215bb5f24a26e5f6e",
    "hardy_ci/7": "b468057d99c4e7b27ab555b6b33506e645d2ca186cc06440815944529b562ebe",
    "atom_collision/0": "c023c77a22c468c81cf13c427edd71a1a701e0f76f3ec6aaa3c0451a08390d10",
    "atom_collision/7": "7725814266ac3f579f46ea247d249ad58fe4bd34cc4a8e670045f907937c3c0e",
    "oblivion_with_pointers/0": "4415b6fc70a97aa77e40513f0afd9123091e90b4b4be5497c75b48960eab72a8",
    "oblivion_with_pointers/7": "186784b0ce7f7fded271a38719030108d216c9a0993010768eb41a70f623346e",
    "zeno_basic/0": "393e208dc581226046e57dbea38067c9e6f41b28527cfd9bc5164e6857f61d78",
    "zeno_basic/7": "ea4305706251bd6eac66d745b4db6f6e439336929ebde69b348a0ce7839d7746",
    "zeno_counterfactual/0": "d2ff455179bfd16a1878ddecee36556628390e7842f919238e727c03b82d0a10",
    "zeno_counterfactual/7": "6022119d32154c332a80e0c7f7d9dbd9186f7c87bedebbb9e7cf322da86c9670",
    "zeno_ghost_entanglement/0": "1faba8ac6de4220771c9d5df5d2d181e32ce10f4ea3c0a5e404bf6d538f54b00",
    "zeno_ghost_entanglement/7": "48bb95ebe621efb602c98942a7d6d417ea333126100f84446923a3addce17a55",
    "partial_erasure/0": "07b2bdb030433d14c44e9841cfe9af6255608ee9cf298d5675cd43dc73274897",
    "partial_erasure/7": "3efbe588e233b9d058c7d9a6c81af4bd33c61a7c2a8f0c21f1c1b0f58be51c0a",
    "weak_ensemble/0": "fca20ecc646d6213d0c6eb4bdbe606f875bd4dadb5c7a238dc2a3a1bae33b35d",
    "weak_ensemble/7": "c8955645397306fbddb131c9c7ce2db1bbfc80477e1dec4d8dbbdea78d41596b",
    "quantum_erasure/0": "896296c5cd628772dbfa12ef892264e4080a5aae141e98e34c8b1918b8efbe72",
    "quantum_erasure/7": "7fd0797443529d167ac4ddaf4f995bf867d04970eb384aaa7e8656f31d804c6f",
    "ghostly_mirror/0": "a1d694635f7ba85a0d9227f43e990c53729d7a33dbe7306f995921d9ad00d209",
    "ghostly_mirror/7": "2722855f35916bc30782073e0d569773ecbb28f8cf385760eae192245e8da748",
    "dicke_tray_spoon/0": "f27f04d1c3412a7a21419c02c9d5d4e4341a3b785238e021a89c8dcad2992cf9",
    "dicke_tray_spoon/7": "98615ff3220bd5dc0cbff9ffbb3b279979de4a09c463e24ade9145ff55979956",
    "ab_toy/0": "9df24e534d6ffd6050d3f976e71303cf002d4f74d6a676b1810b83acb325995e",
    "ab_toy/7": "64aaf063646d3d34d0c2442a1abcf78c4a2b94bdf7faeecd2ffbb8475dcd547b",
    "dicke_tray_spoon/sweep l_spoon=0.1:0.01:20": "e647fa23461018f0dc855b99e40e146cad83ebfca1ea86a4f15944b73236ef63",
    "weak_ensemble/sweep g=0.5:1.5:10 n_shots=1000": "238f32032466db6b0c18974e01e9af5c48d7810e32e05fe26a6ed9bfe20c799b",
    "zeno_basic/sweep alpha=0.157:0.0785:3 --format json": "32b42f6e687c03934ded67c3fae393a774411413fde26ca92dd2797470436723",
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
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(list(ZENO_SWEEP_ARGV)) == 0
    out[ZENO_SWEEP_KEY] = _sha(stdout.getvalue())
    return out


def print_hashes() -> None:
    for key, digest in current_hashes().items():
        print(f'    "{key}": "{digest}",')


def moved_entries() -> list[str]:
    now = current_hashes()
    return [
        f"{key}: {GOLDEN.get(key)} -> {now.get(key)}"
        for key in sorted(set(GOLDEN) | set(now))
        if GOLDEN.get(key) != now.get(key)
    ]


def test_report_bytes_match_golden_hashes():
    moved = moved_entries()
    assert not moved, "report bytes moved:\n" + "\n".join(moved)


@pytest.mark.parametrize("core", ["Nehalem", "Haswell"])
def test_report_bytes_do_not_depend_on_the_blas_kernel(core):
    # No report value goes through BLAS, so a CPU that OpenBLAS serves with
    # an older kernel (SSE4.2 Nehalem, AVX2 Haswell) must give the same bytes.
    if core == "Haswell" and not numpy_baseline.__cpu_features__["AVX2"]:
        pytest.skip("the Haswell kernel needs AVX2")
    out = numpy_baseline.run_on_openblas_core(
        core,
        """
        import test_golden
        print("\\n".join(test_golden.moved_entries()))
        """,
    )
    assert not out.strip(), f"report bytes moved on OpenBLAS core {core}:\n{out}"


def compensated_sum(iterable, start=0):
    """Python 3.12's builtin sum, emulated: Neumaier-compensated while the
    running total and every term are exact floats (ints are added exactly
    first, as the builtin does); any other term ends compensation."""
    items = iter(iterable)
    total = start
    for item in items:
        total = total + item
        if type(total) is float:
            break
    else:
        return total
    comp = 0.0
    for item in items:
        if type(item) is float or type(item) is int or type(item) is bool:
            x = float(item)
            t = total + x
            comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
            continue
        if comp and math.isfinite(comp):
            total += comp
        total = total + item
        for rest in items:
            total = total + rest
        return total
    if comp and math.isfinite(comp):
        total += comp
    return total


def test_report_bytes_do_not_depend_on_a_compensated_builtin_sum(monkeypatch):
    # Every float reduction must fold left to right, so a newer Python's
    # compensated builtin sum cannot move a report byte.
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0 != sum([1e16, 1.0, -1e16])
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "ketsim" or name.startswith("ketsim.")):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    moved = moved_entries()
    assert not moved, "report bytes moved under a compensated sum:\n" + "\n".join(moved)
