"""Regenerate the committed fixture documents under fixtures/.

Run from the repository root:

    python3 scripts/gen_fixtures.py [OUT_DIR]

OUT_DIR defaults to fixtures/.  Output is deterministic, so a clean checkout
regenerates byte-identical files; tests/test_cli.py checks that.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ssethom import fixtures as fx
from ssethom.cat import regular_action
from ssethom.formats import dumps_json, write_document
from ssethom.snf import SparseIntMatrix
from ssethom.sset import (
    boundary_semi_simplex,
    exterior_product,
    free_degeneracies,
    standard_simplicial_simplex,
)


FIXTURES = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                         "..", "fixtures"))


def main(root: str = FIXTURES) -> None:
    os.makedirs(root, exist_ok=True)
    corpus = fx.sset_corpus()

    docs = {
        # semi-simplicial sets
        "point.ss.json": corpus["point"],
        "circle.ss.json": corpus["circle"],
        "rp2.ss.json": fx.real_projective_plane(),
        "boundary3.ss.json": boundary_semi_simplex(3),
        "sphere2.ss.json": corpus["sphere2"],
        "threepoints.ss.json": corpus["threepoints"],
        # simplicial sets (generator presentation)
        "delta2.simp.json": standard_simplicial_simplex(2),
        "freecircle.simp.json": free_degeneracies(corpus["circle"]),
        "freerp2.simp.json": free_degeneracies(fx.real_projective_plane()),
        # categories
        "poset2.cat.json": fx.poset_category(2),
        "grid.cat.json": fx.grid_poset_category(),
        "pair.cat.json": fx.composable_pair_category(),
        "idempotent.cat.json": fx.idempotent_category(),
        # monoids
        "c2.mon.json": fx.cyclic_group_monoid(2),
        "c3.mon.json": fx.cyclic_group_monoid(3),
        "klein4.mon.json": fx.klein_four_monoid(),
        "absorbing.mon.json": fx.absorbing_pair_monoid(),
        "free1.pres.json": fx.free_rank_one_presentation(),
        "glued.pres.json": fx.glued_pair_presentation(),
        # functors
        "endpoint.fun.json": fx.point_into_interval(),
        "collapse.fun.json": fx.interval_to_point(),
        "discretepair.fun.json": fx.discrete_pair_into_interval(),
        "id1.fun.json": fx.quillen_functor_corpus()["id1"],
        # bi-semi-simplicial sets
        "intervalsquare.bis.json": exterior_product(corpus["interval"], corpus["interval"]),
        "torus.bis.json": exterior_product(corpus["circle"], corpus["circle"]),
        # actions and matrices
        "regc2.act.json": regular_action(fx.cyclic_group_monoid(2), "left"),
        "example.mat.json": SparseIntMatrix.from_entries(
            3, 3, [(0, 0, 2), (1, 1, 6), (2, 0, 4), (2, 2, 0)]),
    }
    for name, obj in sorted(docs.items()):
        write_document(os.path.join(root, name), obj)
        print("wrote", name)

    batch = [
        {"check": "adj-units", "files": ["rp2.ss.json"], "cutoff": 4},
        {"check": "fat-thin", "files": ["freerp2.simp.json"], "cutoff": 3},
        {"check": "ez-diagonal", "seed": 3, "cutoff": 3},
        {"check": "krannich", "files": ["pair.cat.json"], "cutoff": 4},
        {"check": "quillen-a", "files": ["endpoint.fun.json"], "cutoff": 3},
        {"check": "bar-acyclic", "files": ["c3.mon.json"], "cutoff": 5},
        {"check": "skeletal-shadow", "files": ["sphere2.ss.json"],
         "cutoff": 3, "degree": 1},
        {"check": "segal-nerve", "files": ["c2.mon.json"], "cutoff": 4},
        {"check": "constant", "size": 4, "cutoff": 4},
    ]
    with open(os.path.join(root, "checks.batch.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps_json(batch))
    print("wrote checks.batch.json")


if __name__ == "__main__":
    main(*sys.argv[1:2])
