"""The two lanes of `minsurf verify`, as plain names.

They partition acceptance.REGISTRY by the cached building blocks the
criteria read, so each lane can run in its own process without building the
other's: the chart lane reads acceptance's _chart, _bump and _immersed; the
profile/deform lane reads the profile alone or the deform constructions.
The table lives here, free of numpy, so that the ``minsurf`` program can
size each lane's BLAS pool before the numerical stack loads;
acceptance.LANES is this table.
"""

LANES: dict[str, tuple[str, ...]] = {
    "chart": ("04-immersion-round-trip", "05-shape-rate-vs-immersion",
              "06-rate-product-rule", "07-curvature-rates-at-zero-locus",
              "11-flow-opens-curvatures"),
    "profile": ("01-ode-first-integral", "02-blowup-width-cross-check",
                "03-pde-vs-ode-convergence",
                "08-hessian-interpolant-certificate", "09-moment-conditions",
                "10-translation-field"),
}
