"""Random-walk baker lattices on Z^d x [0,1)^2.

Exact dynamics and strip calculus for the lattice of baker's maps realizing
a finite-support random walk, estimators for five infinite-volume mixing
notions, and the torus Fourier diagnostics behind their decay rates.
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name, by the module that defines it; each module loads on the
# first read of one of its names, so ``import bakerlattice`` loads none
_EXPORTS = {
    "lattice": (
        "BoxFamily",
        "DimensionMismatchError",
        "LatticeSignal",
        "SpanVerdict",
        "WalkDistribution",
        "a1_boundary_constant",
        "a1_defect",
        "convolution_power",
        "convolve",
        "drift",
        "span_check",
    ),
    "phase": (
        "BudgetExceededError",
        "ItineraryPushforward",
        "PartitionTable",
        "PhasePoint",
        "SiteHistogram",
        "Strip",
        "inverse_step",
        "push_strip",
        "simulate_walk",
        "step",
    ),
    "observables": (
        "AverageEstimate",
        "Box",
        "CellObservable",
        "SiteObservable",
        "box_average",
        "box_average_product",
        "constant_observable",
        "estimate_average",
        "evolve_site",
        "localized_observable",
        "observable_from_config",
        "observable_to_config",
        "orthant_observable",
        "periodic_observable",
        "product_average",
        "reduce_to_site",
        "sign_observable",
    ),
    "mixing": (
        "AuditRecord",
        "CorrelationReport",
        "Evolution",
        "LocalObservable",
        "RateFit",
        "implication_audit",
        "itinerary_oracle",
        "m1_report",
        "m2_table",
        "m4_report",
        "m5_report",
        "rate_profile",
    ),
    "presets": ("PRESETS", "preset"),
    "embedding": ("a_norm", "nowak_check", "nowak_constant", "sobolev_part"),
    # the torus diagnostics are numerical throughout and load numpy
    "fourier": (
        "AliasingError",
        "DefectNorms",
        "FourierConfig",
        "TorusGrid",
        "box_signal",
        "char_function",
        "defect_signal",
        "drift_removed_char",
        "periodic_pairing",
        "smallest_grid",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a layer read as ``bakerlattice.mixing`` before any import of it
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
