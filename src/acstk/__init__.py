"""acstk: exact-rational computations around almost complex structures on
spheres.

The package decides, dimension by dimension and with machine-checkable
certificates, which spheres carry an almost complex structure (exactly
S^2 and S^6), and mechanizes every computation that decision rests on:
Cayley-Dickson algebra arithmetic, the cross-product structure J and its
Nijenhuis tensor, symmetric-function kernels, Bernoulli numbers, the
coefficients of the signature series and L-polynomials,
characteristic-class identities on spheres and the Chern-character
divisibility bound.  Everything is computed over exact rationals; no
floating point appears anywhere.

`import acstk` runs no layer module: each exported name imports the
module that defines it on first use (PEP 562), so a program that needs
one layer pays only for that layer.
"""

__version__ = "0.16.0"

#: The exported names, by the layer module that defines them.
_EXPORTS = {
    "cayley_dickson": ("CDElement", "associator", "basis_product", "probe_alternative"),
    "char_class": ("SphereCohomologyClass", "replay_lemma_pontryagin_euler"),
    "classify": ("SphereVerdict", "classify_range", "classify_sphere"),
    "errors": ("InternalInvariantError",),
    "genera": ("bernoulli", "chern_character", "l_polynomial", "q_coefficient", "s_coefficient"),
    "sphere_acs": (
        "SpherePoint",
        "TangentVector",
        "compare_nijenhuis_associator",
        "cross",
        "j_apply",
        "nijenhuis",
        "rational_sphere_point",
        "tangent_projection",
        "verify_j_structure",
    ),
    "symfun": ("GradedPoly", "newton_polynomial"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the home module of an exported name and keep the name here,
    so later lookups do not come back through this function.  A layer
    module's own name imports that module, so `acstk.genera` is reachable
    after a bare `import acstk`."""
    home = name if name in _EXPORTS else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, is the path that
    # `-X importtime` times; importing binds the module here
    __import__(f"{__name__}.{home}")
    if home != name:
        globals()[name] = getattr(globals()[home], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
