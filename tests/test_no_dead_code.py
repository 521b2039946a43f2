"""Every top-level function, class and method in `src/cxtherm` has a user.

A top-level name counts as used when it appears as a word anywhere in
`src/`, `tests/`, `benchmarks/` or the root `conftest.py` apart from its own
definition; a non-dunder method counts as used when some file reads it as
`.name`.  Standard library only: `ast` finds the definitions, a regex search
finds the uses.  The package also keeps one local gate contraction: no
module mentions `tensordot`, only `gates.py` holds the kernel's `_layout`
and its block bound `BLOCK_ENTRIES` and reads a gate's superoperators, and
no gate is embedded in the full register.  Rows of M_r have one form,
defined in `search.py` alone.  Each fact has one owner: `LOG2 =` is
assigned once, in `entropies.py`; `FEASIBILITY_SLACK =` once, in
`search.py`, and only the effect engine there and the heuristic's M_0 scan
subtract it from eta; only `gates.py` shifts mask bits (`>> (n - 1`), in
`gates.unmasked`; the |0><0| literal `[[1.0, 0.0], [0.0, 0.0]]`
appears once, as `thermo.KET0`; the rule on r is stated once, in
`search.check_r`, and the rule on eta once, in `entropies.check_eta`; only
`registers.py` compares two operators' registers; and only `registers.py`
sums a partial trace.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cxtherm"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def corpus() -> str:
    files = [ROOT / "conftest.py"]
    for top in ("src", "tests", "benchmarks"):
        files.extend(sorted((ROOT / top).rglob("*.py")))
    return "\n".join(f.read_text() for f in files)


def definitions():
    """(qualified name, kind, bare name) for every top-level definition and
    every method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, DEFS):
                continue
            yield f"{path.stem}.{node.name}", "top", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFS) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield f"{path.stem}.{node.name}.{item.name}", "method", item.name


def test_no_unused_definitions():
    text = corpus()
    found = list(definitions())
    assert {"gates.Gate", "gates.Gate.is_unitary"} <= {q for q, _, _ in found}
    unused = []
    for qualified, kind, name in found:
        if kind == "top":
            # the definition itself is one occurrence
            used = len(re.findall(rf"\b{re.escape(name)}\b", text)) > 1
        else:
            used = re.search(rf"\.{re.escape(name)}\b", text) is not None
        if not used:
            unused.append(qualified)
    assert unused == []


def unused_imports(path: Path) -> list[str]:
    """Names that a module's imports bind and that the module never reads;
    `from __future__` imports are exempt."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.extend(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_no_unused_imports():
    # __init__.py imports names to re-export them
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path))
    }
    assert unused == {}


def test_one_local_contraction():
    # the word is refused in docstrings too, so no stale mention survives
    texts = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert [name for name, text in texts.items() if "tensordot" in text] == []
    assert [name for name, text in texts.items() if "_layout" in text] == ["gates.py"]


def test_one_reader_of_superoperators():
    # a gate's superoperator and its adjoint are read in gates.py alone, so
    # no other module stacks or contracts them on the side of the kernel
    users = sorted(p.name for p in PACKAGE.glob("*.py") if "superoperator" in p.read_text())
    assert users == ["gates.py"]


def test_one_rounding_rule():
    # rows and placed gates are deduplicated by gates._rounded alone
    users = sorted(p.name for p in PACKAGE.glob("*.py") if "MATRIX_HASH_DECIMALS" in p.read_text())
    assert users == ["gates.py"]


def owners(needle: str) -> dict[str, int]:
    """How often each package module holds `needle`, where it does."""
    counts = {p.name: p.read_text().count(needle) for p in sorted(PACKAGE.glob("*.py"))}
    return {name: count for name, count in counts.items() if count}


def test_one_log2():
    # log 2 is assigned in entropies.py and imported where it is used
    assert owners("LOG2 =") == {"entropies.py": 1}


def test_one_feasibility_rule():
    # the effect engine owns tr(Q rho) >= eta - FEASIBILITY_SLACK for every
    # exact query; the heuristic applies it to its own M_0 scan
    assert owners("FEASIBILITY_SLACK =") == {"search.py": 1}
    subtracting = [p.name for p in PACKAGE.glob("*.py") if re.search(r"-\s*FEASIBILITY_SLACK", p.read_text())]
    assert set(subtracting) <= {"search.py", "heuristic.py"}


def test_one_rule_per_argument():
    # every entry point calls search.check_r and entropies.check_eta, and
    # registers._check_same_register, instead of restating them
    assert owners("r must be at least 0") == {"search.py": 1}
    assert owners("must lie in (0, tr(rho)]") == {"entropies.py": 1}
    assert owners("register.labels !=") == {"registers.py": 1}


def test_one_partial_trace():
    # registers._trace_out sums every partial trace, RESET runs' included
    assert owners("axis1") == {}
    assert owners("[:, 1, :, :, 1, :]") == {"registers.py": 1}


def test_one_mask_decoder():
    # gates.unmasked alone turns mask bits into qubits
    assert owners(">> (n - 1") == {"gates.py": 1}


def test_one_ket0():
    # every |0><0| ancilla and RESET reads the one read-only thermo.KET0
    assert owners("[[1.0, 0.0], [0.0, 0.0]]") == {"thermo.py": 1}


def test_one_block_bound():
    # the kernels' block size is set in gates.py alone, and RESET and EXTRACT
    # update their buffer in place instead of building a moved outer product
    users = sorted(p.name for p in PACKAGE.glob("*.py") if "BLOCK_ENTRIES" in p.read_text())
    assert users == ["gates.py"]
    thermo = (PACKAGE / "thermo.py").read_text()
    assert "moveaxis" not in thermo and "multiply.outer" not in thermo


def test_no_gate_embedding():
    # the full-register embedding is named in gates.py at its definition
    # alone; only the modules that embed operators other than gates call it
    texts = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert sorted(name for name, text in texts.items() if "expand_operator" in text) == [
        "cxentropy.py", "experiments.py", "gates.py",
    ]
    assert texts["gates.py"].count("expand_operator") == 1


def test_one_row_form():
    # rows are Re Q + Im Q, packed and unpacked in search.py alone
    texts = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert [name for name, text in texts.items() if "triu_indices" in text] == []
    definers = {name: re.findall(r"^def (pack|unpack)\b", text, re.M) for name, text in texts.items()}
    assert {name: sorted(found) for name, found in definers.items() if found} == {
        "search.py": ["pack", "unpack"],
    }


def test_one_slack_per_name():
    # FEASIBILITY_SLACK in search.py and WITNESS_SLACK in cxentropy.py name
    # every slack on eta
    users = sorted(p.name for p in PACKAGE.glob("*.py") if "eta - 1e-1" in p.read_text())
    assert set(users) <= {"cxentropy.py"}


def is_adjoint(node) -> bool:
    """x.conj().T, x.T.conj() or np.conjugate(x.T), conjugate spelled either way."""
    conj = ("conj", "conjugate")
    if isinstance(node, ast.Attribute) and node.attr == "T":
        return isinstance(node.value, ast.Call) and getattr(node.value.func, "attr", None) in conj
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in conj):
        return False
    target = node.args[0] if node.args else node.func.value
    return isinstance(target, ast.Attribute) and target.attr == "T"


def halves(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == 0.5


def averaging_functions(tree, module):
    """Functions that halve an expression holding an adjoint, or that hold an
    adjoint and halve something in place."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(fn))
        has_adjoint = any(is_adjoint(n) for n in nodes)
        for n in nodes:
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult) and (halves(n.left) or halves(n.right)):
                other = n.right if halves(n.left) else n.left
                if any(is_adjoint(m) for m in ast.walk(other)):
                    found.add(f"{module}.{fn.name}")
            if isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Mult) and halves(n.value) and has_adjoint:
                found.add(f"{module}.{fn.name}")
    return found


def test_one_hermitize():
    # the stored form of every operator is (conj(m^T) + m) * 0.5 from one
    # routine; a second copy of the average would drift from its checks
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= averaging_functions(ast.parse(path.read_text()), path.stem)
    assert found == {"registers._hermitize", "registers._hermitize_tiles"}
    probe = ast.parse("def f(m):\n    return 0.5 * (m + np.conjugate(m.T))\n"
                      "def g(m):\n    a = m.T.conj()\n    a += m\n    a *= 0.5\n")
    assert averaging_functions(probe, "probe") == {"probe.f", "probe.g"}


def test_one_reset_write():
    # RESET runs and EXTRACT share one in-place write and one call site
    tree = ast.parse((PACKAGE / "thermo.py").read_text())
    writers = sorted(
        fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef) and any(
            (isinstance(n, ast.keyword) and n.arg == "out")
            or (isinstance(n, ast.Attribute) and n.attr == "fill")
            for n in ast.walk(fn)
        )
    )
    assert writers == ["_replace_qubits"]
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_replace_qubits"]
    assert len(calls) == 1
