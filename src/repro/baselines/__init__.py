"""Baseline algorithms the paper compares against (sequential and distributed)."""

from repro.baselines.baswana_sen import (
    baswana_sen_spanner,
    expected_size_bound,
    implied_approximation_ratio,
)
from repro.baselines.kortsarz_peleg import (
    greedy_client_server_two_spanner,
    greedy_two_spanner,
)
from repro.baselines.mds_baselines import (
    exact_dominating_set,
    expectation_randomized_mds,
    greedy_dominating_set,
)
from repro.baselines.trivial import (
    take_all_spanner,
)

__all__ = [
    "baswana_sen_spanner",
    "exact_dominating_set",
    "expectation_randomized_mds",
    "expected_size_bound",
    "greedy_client_server_two_spanner",
    "greedy_dominating_set",
    "greedy_two_spanner",
    "implied_approximation_ratio",
    "take_all_spanner",
]
