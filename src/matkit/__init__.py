"""matkit: a column-major array kernel with Octave-flavored semantics.

The pieces:

- core: NumArray/BoolMask values, construction, shape rearrangement
- indexing: 1-based index expressions, logical masks, extraction/assignment
- ops: broadcasting, elementwise arithmetic, order-fixed reductions
- linalg: matmul, linear solve, Jacobi eigendecomposition, DCT matrix, bands
- idioms: the case studies (scans, PCA, distances, kNN, grayscale, block DCT)
- bench: deterministic PRNG plus equivalence-gated timing with CSV output
- pnm: P2/P3/P5/P6 image decode/encode
- cli: the `matkit` command
"""

from .core import (
    EPS,
    BoolMask,
    NumArray,
    broadcast_shapes,
    cat,
    circshift,
    colon_range,
    diff_adjacent,
    eps_short,
    flipud,
    from_rows,
    full,
    ind2sub,
    ipermute,
    magic,
    ones,
    permute,
    repelems,
    repmat,
    reshape,
    sort_along_dim,
    sub2ind,
    unique_sorted,
    zeros,
)
from .errors import (
    ArgumentError,
    BroadcastError,
    ContractError,
    ConvergenceError,
    IndexBoundsError,
    MatkitError,
    PnmFormatError,
    ShapeError,
    SingularMatrixError,
    VerificationError,
)
from .indexing import (
    ALL,
    END,
    IndexExpr,
    all_true,
    any_true,
    assign_indexed,
    delete_elements,
    extract,
    isnan_mask,
    logical_assign,
    logical_extract,
    span,
)
from .linalg import DiagBand, EigResult, dctmtx, dot, eig_sym, matmul, mldivide, spdiags_extract
from .ops import (
    apply_broadcast,
    compare,
    cumsum_along_dim,
    ew_binary,
    ew_unary,
    extremum,
    mask_and,
    mask_not,
    mask_or,
    merge,
    reduce_along_dim,
)
from .idioms import (
    MetricFn,
    blockproc,
    boustrophedon_scan,
    dct2d,
    distance_matrix,
    idct2d,
    linear_scan,
    metric_euclidean,
    metric_manhattan,
    nearest_neighbor,
    pca,
    replace_neg_nan,
    replace_negative,
    rgb2gray,
    rgb2gray_loop,
    zigzag_scan,
)
from .bench import (
    BenchScenario,
    Prng,
    TimingRecord,
    built_in_scenarios,
    checksum,
    emit_csv,
    parse_csv,
    run_scenario,
    time_it,
)
from .pnm import Image, decode_pnm, encode_pnm, read_pnm, write_pnm

__version__ = "0.1.0"
