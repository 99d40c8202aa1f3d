"""The golden corpus: the diagrams and graphs shipped as text files in
``splicezeta/corpus``, used by tests, the self-check runner and demos.

The files are the one copy.  Each constructor of a fixed object reads its
file and returns a fresh object on every call, and the ``golden_*`` tables
list the directory; nothing is read at import.  The parametric families
are code, and at the parameters of a shipped file each prints that file.
"""

from __future__ import annotations

from pathlib import Path

from .diagrams import Edge, Farrow, PlumbingGraph, PVertex, SpliceDiagram
from .io import parse_diagram

CORPUS_DIR = Path(__file__).with_suffix("")


def _read(path: Path):
    return parse_diagram(path.read_text())[2]


def two_cusp_diagram() -> SpliceDiagram:
    """Three-node chain: two (2,3,7) nodes around a central valency-3 node
    carrying the single arrowhead.  The running example of the suite."""
    return _read(CORPUS_DIR / "two_cusp.sd")


def two_cusp_plumbing() -> PlumbingGraph:
    """The resolution graph collapsing to two_cusp_diagram: the chain
    (-2, -1, -13, -1, -2) with (-3)-legs at both (-1)s and the arrow at -13."""
    return _read(CORPUS_DIR / "two_cusp.pg")


def two_cusp_diagram_mult(n: int) -> SpliceDiagram:
    """Same shape with the arrowhead multiplicity raised to n."""
    d = two_cusp_diagram()
    return d.with_decorations(f={"a0": n})


def rodrigues_plumbing() -> PlumbingGraph:
    """Non-unimodular elliptic graph: chain (-2, -1, -6, -2) with legs (-4)
    at the -1 and (-3) at the -6, one arrowhead of multiplicity 7 at the end."""
    return _read(CORPUS_DIR / "rodrigues.pg")


def unimodular_counterexample_plumbing(n: int = 1) -> PlumbingGraph:
    """Unimodular graph whose zeta has a pole missing the eigenvalue set:
    chain (-2, -1, -7, -2) with (-3)-legs at the -1 and -7, and n arrows of
    multiplicity 1 at the right-end (-2)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return PlumbingGraph(
        vertices=[
            PVertex("u1", -2),
            PVertex("u2", -1),
            PVertex("u3", -7),
            PVertex("u4", -2),
            PVertex("u5", -3),
            PVertex("u6", -3),
        ],
        edges=[("u1", "u2"), ("u2", "u3"), ("u3", "u4"), ("u2", "u5"), ("u3", "u6")],
        farrows=[Farrow(id=f"a{k}", at="u4", weight=1, mult=1) for k in range(n)],
    )


def intro_star(d1: int, d2: int) -> SpliceDiagram:
    """One node, two boundary legs of weights d1, d2, two arrowheads of
    multiplicity 1 (the splice diagram of a product of two coprime cusps)."""
    return SpliceDiagram(
        vertices=["v", "b1", "b2"],
        edges=[Edge("v", "b1", d1, 1), Edge("v", "b2", d2, 1)],
        farrows=[
            Farrow(id="a1", at="v", weight=1, mult=1),
            Farrow(id="a2", at="v", weight=1, mult=1),
        ],
    )


def plane_curve_staircase(pairs: list[tuple[int, int]]) -> SpliceDiagram:
    """Iterated-torus-knot diagram from decorations [(a_1, p_1), ...] with the
    edge-determinant growth condition a_{k+1} > a_k p_k p_{k+1}; the last node
    carries the single arrowhead.  Multiplicities follow from the shape."""
    r = len(pairs)
    if r < 1:
        raise ValueError("need at least one pair")
    for k in range(1, r):
        if pairs[k][0] <= pairs[k - 1][0] * pairs[k - 1][1] * pairs[k][1]:
            raise ValueError("edge determinant condition violated")
    vertices = []
    edges = []
    for k, (a, p) in enumerate(pairs):
        v = f"v{k + 1}"
        vertices += [v, f"leg{k + 1}"]
        edges.append(Edge(v, f"leg{k + 1}", p, 1))
        if k == 0:
            vertices.append("b0")
            edges.append(Edge(v, "b0", a, 1))
        else:
            edges.append(Edge(f"v{k}", v, 1, a))
    farrows = [Farrow(id="a0", at=f"v{r}", weight=1, mult=1)]
    return SpliceDiagram(vertices, edges, farrows)


def staircase_plumbing_235() -> PlumbingGraph:
    """Minimal resolution of the (2,3)-cusp: star with legs (-2), (-3) around
    a (-1), arrow at the (-1)."""
    return _read(CORPUS_DIR / "staircase_235.pg")


def smooth_point_plumbing() -> PlumbingGraph:
    """One (-1) curve with a transversal arrow: the smooth germ after one blowup."""
    return _read(CORPUS_DIR / "smooth_point.pg")


def e8_plumbing() -> PlumbingGraph:
    """The E8 graph (all -2), det 1: the Poincare sphere."""
    return _read(CORPUS_DIR / "e8.pg")


def golden_splice_diagrams() -> dict[str, SpliceDiagram]:
    """Every shipped ``.sd`` file, parsed afresh, by file stem."""
    return {p.stem: _read(p) for p in sorted(CORPUS_DIR.glob("*.sd"))}


def golden_plumbing_graphs() -> dict[str, PlumbingGraph]:
    """Every shipped ``.pg`` file, parsed afresh, by file stem."""
    return {p.stem: _read(p) for p in sorted(CORPUS_DIR.glob("*.pg"))}
