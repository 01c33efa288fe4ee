"""Coalescent simulation with record-chain extraction and verification.

Four routes to the same object: direct pairwise-merge simulation, the
sequential hazard-inversion construction, the uniform stick construction,
and the exact record Markov chain with its rescaled limit.  Closed-form
laws ship with independent oracles and a deterministic verification suite.
"""

from .aldous import StickField, batch_first_record, identify_ra, partition_at
from .kingman import (PeblsSequence, Trajectory, TrajectoryEvent, build_pebls,
                      extend_recursive, reconstruct_from_pebls,
                      simulate_kingman, time_to_mrca)
from .limit_chain import (WnLaw, rescaled_observables, sample_limit_batch,
                          wn_local_limit_error, wn_log_pmf)
from .ra_chain import (RAState, a_pmf, a_pmf_exact, a_tail, a_tail_exact,
                       r_pmf, r_pmf_exact, r_pmf_vector, r_tail, r_tail_exact,
                       r_tail_vector, sample_a1, sample_a_next,
                       sample_paths_batch, sample_r_next, sample_r_next_batch,
                       urn_oracle_a, urn_oracle_r)
from .stats import (RecordExtraction, TestReport, chi2_gof, chi2_two_sample,
                    extract_records, ks_one_sample, ks_two_sample, tv_distance)
from .streams import exp_inverse, stream

__version__ = "0.1.0"
