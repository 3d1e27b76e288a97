"""The package's public names that no other package code uses.

A public name (no leading underscore) of src/ckmeans counts as used
when code of the package outside its own definition names it: a module
function, class or constant by name, a method by attribute.  Every
unused one is pinned below with the reason it stays, and the reason's
first words name where that reason can be checked:

  acceptance criterion  tests/test_acceptance.py names it
  benchmark             a file of perfbench/ names it (a hook or input)
  test reference        a test compares package code against it
  ROADMAP item          ROADMAP.md gives it a pipeline path

So a new name that only tests call fails here, and so does an entry
whose name the package has started to use or no longer defines.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ckmeans"

PINNED = {
    "flow.FlowNetwork.add_arc":
        "test reference: test_flow and test_kernels build the successive-shortest-path "
        "networks they check the kernels against",
    "flow.solve_min_cost_flow":
        "benchmark: perfbench's flow hook times it",
    "geometry.psi_cost":
        "acceptance criterion 1: scores each candidate against the planted parts",
    "hyperbucket.build_compressed":
        "acceptance criterion 3: compresses a whole point set in one call",
    "oracle.opt_constrained":
        "acceptance criterion 2: the enumeration every variant's kernel must equal",
    "partition.Variant.classical":
        "acceptance criterion 2: constructs the variant it checks",
    "partition.Variant.r_gather":
        "acceptance criterion 2: constructs the variant it checks",
    "partition.Variant.r_capacity":
        "acceptance criterion 2: constructs the variant it checks",
    "partition.Variant.chromatic":
        "acceptance criterion 2: constructs the variant it checks",
    "partition.Variant.fault_tolerant":
        "acceptance criterion 2: constructs the variant it checks",
    "partition.Variant.semi_supervised":
        "acceptance criterion 2: constructs the variant it checks",
    "stability.gap_merged_cost_exact":
        "acceptance criterion 6: the gap fixture's exact merged cost",
    "stability.faster_ptas":
        "ROADMAP item 2: completes t-tuples to k centers and becomes the solver behind `--t`",
    "streaming.ArraySource":
        "benchmark: the stream-classical workload streams its points from it",
}

EVIDENCE = {
    "acceptance criterion": [ROOT / "tests" / "test_acceptance.py"],
    "benchmark": sorted((ROOT / "perfbench").glob("*.py")),
    "test reference": sorted(p for p in (ROOT / "tests").glob("*.py")
                             if p.name != Path(__file__).name),
    "ROADMAP item": [ROOT / "ROADMAP.md"],
}


def _names(nodes) -> set:
    """Identifiers the nodes read: names, and attributes by their last part."""
    out = set()
    for sub in (s for node in nodes for s in ast.walk(node)):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unused_public_names() -> set:
    reads = []          # identifiers read by each unit of code: a statement or a method
    defined = []        # (qualified name, leaf name, indices of its own units)
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for top in ast.parse(path.read_text()).body:
            own = {len(reads)}
            if isinstance(top, ast.ClassDef):
                methods = [s for s in top.body if isinstance(s, ast.FunctionDef)]
                reads.append(_names([s for s in top.body if s not in methods]
                                    + top.bases + top.decorator_list))
                for m in methods:
                    if not (top.name.startswith("_") or m.name.startswith("_")):
                        defined.append((f"{module}.{top.name}.{m.name}", m.name, {len(reads)}))
                    own.add(len(reads))
                    reads.append(_names([m]))
                names = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                reads.append(_names([top.value] if top.value else []))
            else:
                names = [top.name] if isinstance(top, ast.FunctionDef) else []
                reads.append(_names([top]))
            defined += [(f"{module}.{name}", name, own)
                        for name in names if not name.startswith("_")]
    return {qual for qual, leaf, own in defined
            if not any(leaf in r for i, r in enumerate(reads) if i not in own)}


def test_unused_public_names_are_pinned():
    unused = unused_public_names()
    assert sorted(unused - PINNED.keys()) == [], "used only by tests: pin with a reason or delete"
    assert sorted(PINNED.keys() - unused) == [], "stale: now used by the package, or gone"


def test_each_pinned_reason_can_be_checked():
    for qual, reason in PINNED.items():
        kind = next((k for k in EVIDENCE if reason.startswith(k)), None)
        assert kind is not None, (qual, reason)
        leaf = re.compile(rf"\b{re.escape(qual.rpartition('.')[2])}\b")
        assert any(leaf.search(p.read_text()) for p in EVIDENCE[kind]), (qual, kind)
