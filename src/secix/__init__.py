"""secix: secure index coding over prime fields.

Model broadcast instances with per-receiver side information and an
eavesdropper access structure, decide whether codes exist that serve
every receiver while leaking nothing the eavesdropper lacks, construct
MDS-based and derandomized linear codes, and verify decodability and
block security of arbitrary codes by exact exhaustive counting.
"""

from .gf import FieldMatrix, is_prime, smallest_prime_at_least, vandermonde
from .model import (
    AccessStructure,
    BipartiteGraph,
    Instance,
    Receiver,
    build_graph,
    every_message_wanted,
    instance_to_dict,
    load_instance,
    normalize,
    parse_instance,
    save_instance,
    strip_unwanted,
    validate,
)
from .codes import (
    Decoder,
    LinearCode,
    NoSecureCodeError,
    TableCode,
    code_to_dict,
    construct_mds_code,
    decode,
    derandomize,
    load_code,
    parse_code,
    save_code,
    security_level,
    single_access_code,
)
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    InfeasibleBlockError,
    PairCheck,
    SecurityReport,
    check_decodability,
    check_security,
)
from .analysis import (
    ANSWER_NO,
    ANSWER_UNKNOWN,
    ANSWER_YES,
    AcyclicCertificate,
    CompromisedReceiverCertificate,
    ExistenceVerdict,
    decide,
    decide_t_level,
    length_bounds,
    min_side_info,
    search_linear,
)

__version__ = "0.1.0"
