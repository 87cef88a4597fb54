"""Exact additive-combinatorics workbench over finite abelian groups."""

from .group import GroupSpec, fourier_array, inverse_fourier_array, make_group, parse_group
from .setfun import (DenseFunc, GSet, convolve, correlate, delta_sumset_size,
                     difference_set, generalized_convolution, iterated_convolve,
                     katz_koester_check, set_correlate, set_convolve, sigma_k,
                     slice_set, sumset)
from .energy import (EnergyValue, WeightKernel, energy_k, energy_pair_k, mixed_energy,
                     pair_energy, restricted_energy, sigma_restricted, starred_energy,
                     t_energy, t_k, weighted_energy, wiener_norm)
from .gowers import GowersValue, gowers_normalized_monotonicity, gowers_pair_u3, gowers_u
from .structure import (ConnectednessParams, DisjointFamily, PreconditionError,
                        SliceScan, connectedness_gamma, connected_extraction_gamma_floor,
                        extract_connected_subset, extraction_step_cap,
                        gowers_connectedness_gamma, greedy_disjoint_in_target,
                        greedy_disjoint_slices, greedy_disjoint_translates,
                        min_slice_energy_ratio, popular_slice_family,
                        random_disjoint_family, regular_part,
                        regular_part_weighted, small_doubling_subset_oracle)
from . import constructors
from .constructors import InstanceSpec
from .verify import (CheckResult, VerifyConfig, frozen_corpus, run_corpus,
                     run_identity_suite, run_inequality_suite, run_ratio_report)

__all__ = [name for name in dir() if not name.startswith("_")]
