"""Out-of-core dot-product join over a paged dense model.

Sparse input vectors are streamed against a model vector stored as fixed
pages on disk, under a hard page budget, with vector reordering, request
batching, and a set-pinning LRU buffer manager keeping the storage traffic
down. Gradient descent (logistic regression and low-rank matrix
factorization) runs through the same machinery.
"""

from .batcher import Batch, brute_force_batches, greedy_batches, total_requests
from .buffer_manager import BufferManager
from .errors import (
    DpjoinError,
    OversizedVectorError,
    PreconditionError,
    StoreError,
    ValidationError,
)
from .metrics import MetricsReport, emit_report
from .model_store import ModelStore, PageView
from .operator import (
    CollectSink,
    DotProductResult,
    OperatorConfig,
    dot_product,
    oracle_dot_products,
    run,
)
from .reorder import (
    HEURISTICS,
    LshIndex,
    minwise_params,
    minwise_signature,
    objective,
    reorder,
    reorder_kcenter,
    reorder_lsh,
    reorder_none,
    reorder_radix,
    reorder_shuffle,
)
from .sparse_data import (
    Dataset,
    SparseVector,
    load_dataset,
    page_request_set,
    store_dataset,
)
from .training import (
    LmfLayout,
    TrainConfig,
    TrainReport,
    lmf_cell_gradient,
    lmf_loss,
    lr_loss,
    lr_scale,
    train,
    train_oracle,
)

__version__ = "0.1.0"
