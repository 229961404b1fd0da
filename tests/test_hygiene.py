"""Source hygiene: no module of metatx imports a name it never uses, no
module draws from numpy's legacy global random state, only the CLI touches
files, every function
the benchmark's tracer patches by name still exists, the sweeps make one
``closed_form_phases`` call per block of trials, not one per trial, they
build one generator per stream, not one per trial, draw their bits as raw
words, not through ``integers``, and take their norms through
``precoder.row_norms``, not one ``np.linalg.norm`` per row, and the
two-stream solver's Newton finish takes no eigendecomposition and has no
size limit, no function forms the dense (K, T) reflection array, the
runtime needs numpy alone: no module imports scipy, and
importing the CLI loads none of it, the sense chain scales its
spectrograms to peak 1 only through ``Spectrogram.peak_normalized``, only
``simulator._unit_scaled`` and ``simulator._noise_power`` rescale by powers
of two (``ldexp``, ``frexp``), and
the only functions ``functools`` caches are the four seed-independent
builds (the QAM constellation, the pulse taps, the hemisphere grid and the
steering factors), each returning read-only arrays only, and
every public function and method of ``src/`` has a caller outside the tests:
code that only tests reach lives in ``tests/reference.py``, every
library parameter and dataclass field with a default is set by some caller
outside the tests, and every dataclass field is read by some code outside
the tests.

``__init__.py`` is exempt from the import check: its imports are the
package's public exports. Every random draw goes through a generator seeded
per stream or per run (``np.random.default_rng``) and no module reseats a
bit generator's ``state``: that keeps reruns byte-identical, and a sweep
that reads each stream in trial order gives the same draws at any block
size.
"""

import ast
import dataclasses
import importlib
import importlib.util
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from metatx import precoder as pc
from metatx.geometry import ArrayGeometry, hemisphere_grid
from metatx.channel import TerminalArray
from metatx.simulator import TRIAL_BLOCK, ber_sweep, default_scenario, diversity_sweep

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "metatx"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that no expression in the module reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_detector_flags_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\nimport numpy as np\n"
        "from .modem import qam_map, QAM_ORDERS\n"
        "def f(x: np.ndarray):\n    return os.path.join(qam_map.__name__)\n"
    )
    assert unused_imports(source) == ["QAM_ORDERS", "json"]


def test_modules_found():
    assert {"cli.py", "reflection.py", "mixer.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


ALLOWED_NP_RANDOM = {"default_rng", "Generator"}


def legacy_random_names(source: str) -> list[str]:
    """``np.random.<name>`` attributes other than the seeded-generator API."""
    return sorted(
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "random"
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "np"
        and node.attr not in ALLOWED_NP_RANDOM
    )


def test_legacy_random_detector():
    source = (
        "import numpy as np\n"
        "def f(rng: np.random.Generator, seed):\n"
        "    np.random.seed(seed)\n"
        "    return np.random.default_rng(seed).random() + np.random.standard_normal()\n"
    )
    assert legacy_random_names(source) == ["seed", "standard_normal"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_legacy_global_random_draws(path):
    assert legacy_random_names(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of every module an import statement loads, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_imported_modules_detector():
    source = (
        "import numpy as np\nfrom os import path\nfrom . import modem\n"
        "def f():\n    import xml.dom\n    return np, path, modem, xml\n"
    )
    assert imported_modules(source) == {"numpy", "os", "xml"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # scipy is a test dependency only; importing scipy.interpolate alone
    # used to cost more start-up time than most CLI runs spend computing.
    assert "scipy" not in imported_modules(path.read_text())


def test_cli_import_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    code = "import sys, metatx.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


FILE_WRITERS = {"cli.py"}  # the library computes; the CLI lays out its files


def file_access(source: str) -> list[str]:
    """``json`` imports, ``open(...)`` calls, builtin or as a method, and calls
    of ``np.save``/``np.savetxt`` and of the ``.tofile`` method."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
            found.append(f"from {node.module}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                found.append("open()")
            elif name == "tofile" or (
                name in ("save", "savetxt") and getattr(getattr(func, "value", None), "id", None) == "np"
            ):
                found.append(f"{name}()")
    return sorted(found)


def test_file_access_detector():
    source = (
        "import json\nimport numpy as np\nfrom json import dumps\n"
        "def f(path, opened):\n"
        "    with open(path) as fh:\n"
        "        return np.load(fh), path.open(), opened, dumps\n"
    )
    assert file_access(source) == ["from json", "import json", "open()", "open()"]
    assert file_access("import numpy as np\ndef f(x):\n    return np.opened(x)\n") == []
    writers = (
        "import numpy as np\n"
        "def f(path, x):\n"
        "    np.save(path, x)\n"
        "    np.savetxt(path, x, fmt='%.17g')\n"
        "    x.real.tofile(path)\n"
        "    return np.saved, x.save, np.load(path)\n"
    )
    assert file_access(writers) == ["save()", "savetxt()", "tofile()"]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name not in FILE_WRITERS],
    ids=lambda p: p.name,
)
def test_only_the_cli_touches_files(path):
    assert file_access(path.read_text()) == []


def load_tracer():
    """``bench/tracer.py`` loaded as a module, without installing it anywhere."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unresolved_targets(targets) -> list[str]:
    """Tracer targets with no module attribute, or no method in the class ``__dict__``."""
    missing = []
    for module_name, attr, *_ in targets:
        owner, _, name = attr.rpartition(".")
        module = importlib.import_module(f"metatx.{module_name}")
        if owner:
            found = name in vars(getattr(module, owner, object))
        else:
            found = hasattr(module, name)
        if not found:
            missing.append(f"{module_name}.{attr}")
    return missing


def test_unresolved_target_detector():
    targets = [("geometry", "no_such_function"), ("reflection", "SurfaceConfig.no_such_method"),
               ("reflection", "NoSuchClass.uniform"), ("geometry", "hemisphere_grid"),
               ("reflection", "SurfaceConfig.uniform")]
    assert unresolved_targets(targets) == [
        "geometry.no_such_function",
        "reflection.SurfaceConfig.no_such_method",
        "reflection.NoSuchClass.uniform",
    ]


def test_every_tracer_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    assert unresolved_targets(targets) == []


@pytest.mark.parametrize("trials", [2, TRIAL_BLOCK, TRIAL_BLOCK + 5, 200])
def test_sweeps_call_closed_form_once_per_block_of_trials(monkeypatch, trials):
    # Through the module attribute, where the benchmark's tracer counts them.
    real = pc.closed_form_phases
    calls = []
    monkeypatch.setattr(pc, "closed_form_phases", lambda *a: calls.append(1) or real(*a))
    scenario = default_scenario(seed=1, rx=TerminalArray.ula(2))
    blocks = math.ceil(trials / TRIAL_BLOCK)
    ber_sweep(scenario, [10.0], 4, "closed_form", trials, trials * 8)
    assert len(calls) == blocks
    diversity_sweep(scenario, [4, 8], trials)
    assert len(calls) == 3 * blocks


def called_attributes(source: str, function: str) -> list[str]:
    """Names called, bare or as attributes, anywhere in ``function``'s body."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    found.append(func.id if isinstance(func, ast.Name) else getattr(func, "attr", ""))
    return sorted(found)


def test_called_attributes_detector():
    source = (
        "import numpy as np\n"
        "def f(seed):\n    return np.random.default_rng(seed).integers(0, 2, 4)\n"
        "def g(rng):\n    return len(rng.random(3))\n"
    )
    assert called_attributes(source, "f") == ["default_rng", "integers"]
    assert called_attributes(source, "g") == ["len", "random"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_forms_the_dense_reflection_array(path):
    # The surface is one phase per element and one shared magnitude series;
    # the (K, T) reflection array is the tests' dense reference only. The
    # grid tiles its azimuths over the polar rings, which is no surface array.
    source = path.read_text()
    functions = {n.name for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef)}
    called = set().union(*(called_attributes(source, f) for f in functions))
    banned = {"reflection_coefficients"} | ({"tile"} if path.name != "geometry.py" else set())
    assert not banned & called


@pytest.mark.parametrize("function", ["ber_sweep", "_channel_blocks"])
def test_sweeps_draw_no_bits_through_integers(function):
    # The bits come from raw words, not integers().
    assert "integers" not in called_attributes((SRC / "simulator.py").read_text(), function)


def test_sweeps_build_their_generators_per_stage_not_per_trial(monkeypatch):
    # ber_sweep reads a channel and a phase stream, then a bit and a noise
    # stream per SNR point; diversity_sweep one stream per K. A generator
    # per trial would cost more than the draws it serves.
    real = np.random.default_rng
    built = []
    monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(1) or real(*a))
    scenario = default_scenario(seed=1, rx=TerminalArray.ula(2))
    counts = []
    for trials in (2, 33, 200):
        built.clear()
        ber_sweep(scenario, [5.0, 10.0, np.inf], 4, "closed_form", trials, trials * 8)
        n_ber = len(built)
        built.clear()
        diversity_sweep(scenario, [4, 8], trials)
        counts.append((n_ber, len(built)))
    assert counts == [(2 + 2 * 3, 2)] * 3


def assigned_attributes(source: str) -> list[str]:
    """Attribute names bound by assignment anywhere in ``source``, augmented
    and unpacking assignments too; an item set on an attribute binds none."""
    found = []
    for node in ast.walk(ast.parse(source)):
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets += target.elts
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif isinstance(target, ast.Attribute):
                found.append(target.attr)
    return sorted(found)


def test_assigned_attributes_detector():
    source = (
        "def f(rng, a):\n    rng.bit_generator.state = {}\n    a.b, (c, *a.d) = 1, (2, 3)\n"
        "    a.n += 1\n    a.x[0] = 3\n    a.state\n"
    )
    assert assigned_attributes(source) == ["b", "d", "n", "state"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reseats_a_bit_generator(path):
    # Every stream starts from its default_rng seed; none is set through a
    # bit generator's state.
    assert "state" not in assigned_attributes(path.read_text())


def test_ber_sweep_counts_bit_errors_on_symbol_indices():
    # With Gray coding the bit errors are the popcount of sent XOR decided
    # index; expanding both into int64 bit arrays costs more than the count.
    called = set(called_attributes((SRC / "simulator.py").read_text(), "ber_sweep"))
    assert {"qam_indices", "qam_decide", "bitwise_count"} <= called
    assert not {"qam_map", "qam_demap"} & called


def dotted_calls(source: str, function: str | None = None) -> list[str]:
    """Dotted names called (``np.linalg.norm``), in ``function``'s body or the whole module."""
    tree = ast.parse(source)
    scopes = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == function]
    found = []
    for scope in scopes if function else [tree]:
        for call in ast.walk(scope):
            if isinstance(call, ast.Call):
                parts, node = [], call.func
                while isinstance(node, ast.Attribute):
                    parts.append(node.attr)
                    node = node.value
                if isinstance(node, ast.Name):
                    found.append(".".join([node.id, *reversed(parts)]))
    return sorted(found)


def module_names(source: str) -> set[str]:
    """Names a module binds at its top level by assignment or definition."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return found


def test_dotted_calls_detector():
    source = (
        "import numpy as np\n"
        "def f(x):\n    return np.linalg.eigh(x), np.linalg.norm(x[0]), len(x)\n"
        "def g(x):\n    return x.conj().sum()\n"
    )
    assert dotted_calls(source, "f") == ["len", "np.linalg.eigh", "np.linalg.norm"]
    assert dotted_calls(source, "g") == ["x.conj"]
    assert dotted_calls(source) == ["len", "np.linalg.eigh", "np.linalg.norm", "x.conj"]


def test_module_names_detector():
    source = (
        "import numpy as np\nNEWTON_MAX_ANGLES = 256\nA, (B, C) = 1, (2, 3)\nD: int = 4\n"
        "def f(x):\n    LOCAL = 5\n    return x\nclass E:\n    pass\n"
    )
    assert module_names(source) == {"NEWTON_MAX_ANGLES", "A", "B", "C", "D", "f", "E"}


EXACT_RESCALES = {"np.ldexp", "math.ldexp", "np.frexp"}
# The functions that own the power-of-two rescale of link gains and noise.
RESCALE_OWNERS = {"simulator.py": ["_unit_scaled", "_noise_power"]}


def stray_rescales(source: str, owners: list[str]) -> list[str]:
    """Exact-rescale calls in ``source`` outside the functions ``owners``."""
    found = Counter(c for c in dotted_calls(source) if c in EXACT_RESCALES)
    for owner in owners:
        found -= Counter(c for c in dotted_calls(source, owner) if c in EXACT_RESCALES)
    return sorted(found.elements())


def test_stray_rescales_detector():
    source = (
        "import math\nimport numpy as np\n"
        "def _unit_scaled(x):\n    return np.ldexp(x, -np.frexp(x)[1])\n"
        "def f(x):\n    return math.ldexp(x, 3), np.ldexp(x, 1), np.exp(x)\n"
        "Y = np.frexp(2.0)\n"
    )
    assert stray_rescales(source, ["_unit_scaled"]) == ["math.ldexp", "np.frexp", "np.ldexp"]
    assert stray_rescales(source, ["_unit_scaled", "f"]) == ["np.frexp"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_power_of_two_rescales_stay_in_their_two_helpers(path):
    # One place decides how link gains and noise scale to about 1; a rescale
    # elsewhere would be a second copy of that decision, free to diverge.
    assert stray_rescales(path.read_text(), RESCALE_OWNERS.get(path.name, [])) == []


def test_newton_finish_takes_no_eigendecomposition_and_no_size_limit():
    # One matrix-free trust-region step serves every problem size.
    source = (SRC / "precoder.py").read_text()
    assert not {"np.linalg.eigh", "np.linalg.eig", "np.linalg.eigvalsh"} & set(dotted_calls(source))
    assert "NEWTON_MAX_ANGLES" not in module_names(source)


def svd_calls(source: str, function: str | None = None) -> list[str]:
    """SVD calls (``np.linalg.svd``, ``scipy.linalg.svdvals``, a bare ``svd``) in ``function`` or the module."""
    return [c for c in dotted_calls(source, function) if c.rsplit(".", 1)[-1] in {"svd", "svdvals"}]


def test_svd_calls_detector():
    source = (
        "import numpy as np\nfrom scipy import linalg\nfrom numpy.linalg import svd\n"
        "def f(x):\n    return np.linalg.svd(x), linalg.svdvals(x), np.linalg.qr(x)\n"
        "def g(x):\n    return svd(x), x.svd_like()\n"
    )
    assert svd_calls(source, "f") == ["linalg.svdvals", "np.linalg.svd"]
    assert svd_calls(source, "g") == ["svd"]
    assert svd_calls(source) == ["linalg.svdvals", "np.linalg.svd", "svd"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_closed_form_precoder_takes_an_svd(path):
    # The dominant mode has one home, which takes the SVD of the N_r x N_r
    # QR factor; a caller's own SVD of H_o would be a second, wider copy.
    source = path.read_text()
    owned = svd_calls(source, "closed_form_phases") if path.name == "precoder.py" else []
    assert svd_calls(source) == owned
    if path.name == "precoder.py":
        assert owned == ["np.linalg.svd"]


@pytest.mark.parametrize("module, function", [
    ("simulator.py", "ber_sweep"), ("simulator.py", "diversity_sweep"),
    ("simulator.py", "_channel_blocks"), ("precoder.py", "closed_form_phases"),
])
def test_sweep_norms_go_through_row_norms(module, function):
    # A per-row np.linalg.norm loop costs a call per trial; row_norms gives the same bits.
    assert "np.linalg.norm" not in dotted_calls((SRC / module).read_text(), function)


@pytest.mark.parametrize("module, function, own_peaks", [
    ("sensing.py", "doppler_signature", []),
    ("simulator.py", "doppler_spoof_experiment", []),
])
def test_spectrograms_normalise_only_through_peak_normalized(module, function, own_peaks):
    # One peak normalisation serves the template and every probe: no grid
    # divided by its own max, no clip, no hand-built Spectrogram.
    source = (SRC / module).read_text()
    calls = dotted_calls(source, function)
    assert "peak_normalized" in called_attributes(source, function)
    assert not {"Spectrogram", "np.clip", "np.max", "np.amax"} & set(calls)
    assert [c for c in calls if c.endswith(".max")] == own_peaks


def cached_functions(source: str) -> list[str]:
    """Functions decorated with ``lru_cache`` or ``cache``, called or not,
    bare or as ``functools.`` attributes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    found.append(node.name)
    return sorted(found)


def returned_arrays(value) -> list[np.ndarray]:
    """The arrays a value holds: itself, a tuple's items or a dataclass's fields."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        value = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return [a for item in value for a in returned_arrays(item)]
    return []


def test_cached_function_detector():
    source = (
        "import functools\nfrom functools import lru_cache\n"
        "@functools.lru_cache(maxsize=2)\ndef a(x):\n    return x\n"
        "@lru_cache\ndef b(x):\n    return x\n"
        "@functools.cache\ndef c(x):\n    return x\n"
        "@functools.wraps(a)\ndef d(x):\n    return x\n"
        "class E:\n    @functools.lru_cache\n    def f(self):\n        return self\n"
    )
    assert cached_functions(source) == ["a", "b", "c", "f"]
    shared = np.zeros(2)
    shared.setflags(write=False)
    held = returned_arrays((shared, ArrayGeometry(1, 1, 1.0, 1.0), hemisphere_grid(1, 2), np.ones(3)))
    assert [a.flags.writeable for a in held] == [False, False, False, True]


# One sample call of each cached build, (module, function) -> arguments.
CACHED_SAMPLES = {
    ("modem", "constellation"): (16,),
    ("modem", "_pulse_taps"): ("raised_cosine", 0.35, 8, 4),
    ("geometry", "hemisphere_grid"): (2, 3),
    ("geometry", "steering_factors"): (ArrayGeometry(3, 2, 0.025, 0.05), hemisphere_grid(2, 3)),
}


def test_only_the_seed_independent_builds_are_cached():
    # A cache shares what it returns between callers for the life of the
    # process: only builds that depend on their arguments alone belong there.
    found = {(p.stem, name) for p in sorted(SRC.glob("*.py")) for name in cached_functions(p.read_text())}
    assert found == set(CACHED_SAMPLES)


@pytest.mark.parametrize("module, function", CACHED_SAMPLES, ids=[".".join(k) for k in CACHED_SAMPLES])
def test_cached_builds_return_read_only_arrays(module, function):
    # A writable shared array lets one caller change every later caller's result.
    build = getattr(importlib.import_module(f"metatx.{module}"), function)
    value = build(*CACHED_SAMPLES[module, function])
    assert build(*CACHED_SAMPLES[module, function]) is value
    arrays = returned_arrays(value)
    assert arrays and not any(a.flags.writeable for a in arrays)


def referenced_names(tree) -> Counter:
    """How often each name is read in ``tree``, bare or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute)))


def public_definitions(tree):
    """(qualified name, node) of each public top-level function and method."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for member in members:
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                owner = f"{node.name}." if member is not node else ""
                yield owner + member.name, member


def unreferenced_definitions(modules: dict, outside: set[str]) -> list[str]:
    """Public functions and methods of ``modules`` (name -> source) that no
    other module reads, nor their own module outside the definition, nor
    ``outside`` lists."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    names = {name: referenced_names(tree) for name, tree in trees.items()}
    missing = []
    for name, tree in trees.items():
        others = set().union(*(n for m, n in names.items() if m != name))
        for qualified, node in public_definitions(tree):
            own = names[name] - referenced_names(node)  # the reads outside the definition
            if node.name not in others | own.keys() | outside:
                missing.append(f"{name}.{qualified}")
    return missing


def test_unreferenced_definition_detector():
    modules = {
        "a": "def used():\n    return 1\ndef recursive(n):\n    return recursive(n - 1)\n"
             "def _private():\n    pass\nclass C:\n    def method(self):\n        return self\n"
             "    def called(self):\n        return self.method()\n",
        "b": "from a import used\ndef external():\n    return used()\n",
    }
    assert unreferenced_definitions(modules, set()) == ["a.recursive", "a.C.called", "b.external"]
    assert unreferenced_definitions(modules, {"called", "external"}) == ["a.recursive"]


def outside_references() -> set[str]:
    """Names the benchmark reads, with each part of the tracer's dotted
    targets, and the names the acceptance suite imports."""
    names = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        names |= referenced_names(ast.parse(path.read_text())).keys()
    names |= {part for _, attr, *_ in load_tracer().TARGETS for part in attr.split(".")}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return names | {a.name for node in ast.walk(acceptance)
                    if isinstance(node, ast.ImportFrom) for a in node.names}


def test_every_public_definition_has_a_caller_outside_the_tests():
    # A function only tests call is a second copy of behaviour to keep; its
    # place is tests/reference.py. __init__.py only re-exports.
    modules = {p.stem: p.read_text() for p in MODULES}
    assert unreferenced_definitions(modules, outside_references()) == []


def dataclass_fields(tree):
    """(class, field, position, defaulted) of each field of each ``@dataclass``
    class: its annotated names, in order. Positions count the ``__init__``
    arguments; a ``field(init=False)`` is none of them and has position None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
            for d in node.decorator_list
        ):
            position = 0
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    value = item.value
                    init = not (isinstance(value, ast.Call) and any(
                        k.arg == "init" and getattr(k.value, "value", True) is False
                        for k in value.keywords))
                    yield node.name, item.target.id, position if init else None, value is not None
                    position += init


def optional_parameters(tree):
    """(function, parameter, position) of each parameter with a default, in
    functions and methods at any depth, and (class, field, position) of each
    ``@dataclass`` field with a default that ``__init__`` takes. A
    keyword-only parameter has position None; a method's positions count from
    the argument after self or cls."""
    methods = {id(m) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for m in c.body
               if isinstance(m, ast.FunctionDef)
               and "staticmethod" not in {getattr(d, "id", None) for d in m.decorator_list}}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            bound = id(node) in methods
            for i in range(len(positional) - len(args.defaults), len(positional)):
                yield node.name, positional[i].arg, i - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None
    for cls, name, position, defaulted in dataclass_fields(tree):
        if defaulted and position is not None:
            yield cls, name, position


def unset_parameters(modules: dict, callers: list[str]) -> list[str]:
    """Defaulted parameters of ``modules`` (name -> source) that no call in
    ``callers`` passes, by position or by keyword, as ``module.function(parameter)``.
    Calls match by the called name; one that unpacks ``*args`` or ``**kwargs``
    passes every parameter."""
    reach, keywords, unpacked = Counter(), set(), set()
    for source in callers:
        for call in ast.walk(ast.parse(source)):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if (any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg is None for k in call.keywords)):
                    unpacked.add(name)
                reach[name] = max(reach[name], len(call.args))
                keywords.update((name, k.arg) for k in call.keywords)
    missing = []
    for module, source in modules.items():
        for function, parameter, position in optional_parameters(ast.parse(source)):
            if not (function in unpacked or (function, parameter) in keywords
                    or position is not None and reach[function] > position):
                missing.append(f"{module}.{function}({parameter})")
    return missing


def test_unset_parameter_detector():
    modules = {"a": (
        "def f(x, y=1, z=2, *, w=3):\n    return x\n"
        "def g(x=0):\n    return x\n"
        "class C:\n    def m(self, u=1, v=2):\n        return u\n"
        "    @staticmethod\n    def s(p=1):\n        return p\n"
        "def h(q=1, r=2):\n    return q\n"
        "@dataclass(frozen=True)\nclass D:\n    a: int\n    b: int = 1\n"
        "    c: int = field(default=2)\n    d: list = field(init=False)\n    e: int = 3\n"
        "@dataclass\nclass E:\n    u: int = 0\n"
    )}
    callers = ["f(0, 5)\nf(0, w=4)\nC().m(7)\nC.s(1)\nh(*args)\nD(0, 5)\n",
               "g(**options)\nE(**fields)\n"]
    assert unset_parameters(modules, callers) == ["a.f(z)", "a.m(v)", "a.D(c)", "a.D(e)"]
    # d is no __init__ argument, so e is the fourth
    settings = "f(0, 1, 2)\nC().m(v=2)\nD(0, 1, 2, 3)\n"
    assert unset_parameters(modules, callers + [settings]) == []


def outside_sources() -> list[str]:
    """Sources of the code outside the tests: the package, the benchmark and
    the acceptance suite."""
    paths = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]
    return [p.read_text() for p in paths]


def test_every_optional_parameter_is_set_outside_the_tests():
    # A default no caller changes is a constant that tests alone turn: each
    # is behaviour to keep and check that no run reaches. The CLI is exempt
    # as the outermost caller; its defaults are the command-line flags.
    modules = {p.stem: p.read_text() for p in MODULES if p.name != "cli.py"}
    assert unset_parameters(modules, outside_sources()) == []


def unread_fields(modules: dict, readers: list[str]) -> list[str]:
    """Dataclass fields of ``modules`` (name -> source) that no source in
    ``readers`` reads as an attribute, as ``module.Class.field``."""
    read = {n.attr for source in readers for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"{module}.{cls}.{name}" for module, source in modules.items()
            for cls, name, *_ in dataclass_fields(ast.parse(source)) if name not in read]


def test_unread_field_detector():
    modules = {"a": (
        "@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int = 0\n"
        "    z: int = field(init=False)\nclass Q:\n    w: int\n"
    )}
    readers = ["def f(p):\n    p.z = p.x\n    return P(y=1)\n"]  # set, not read: y and z
    assert unread_fields(modules, readers) == ["a.P.y", "a.P.z"]
    assert unread_fields(modules, readers + ["print(p.y, p.z)\n"]) == []


def test_every_dataclass_field_is_read_outside_the_tests():
    # A field nothing reads is state a caller can set to no effect. The CLI
    # is exempt: its run manifest is written whole through asdict.
    modules = {p.stem: p.read_text() for p in MODULES if p.name != "cli.py"}
    assert unread_fields(modules, outside_sources()) == []
