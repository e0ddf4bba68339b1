"""Out-of-core dot-product join over a paged dense model.

Sparse input vectors are streamed against a model vector stored as fixed
pages on disk, under a hard page budget, with a set-pinning LRU buffer
manager. By default each chunk of vectors is joined by one ascending
gather of its pages; the paper's operator (vector reordering and request
batching) is the `batched` plan. Gradient descent (logistic regression
and low-rank matrix factorization) runs through the same machinery.
"""

from .batcher import Batch, greedy_batches
from .buffer_manager import BufferManager
from .errors import (
    DpjoinError,
    OversizedVectorError,
    PreconditionError,
    StoreError,
    ValidationError,
)
from .metrics import MetricsReport, emit_report
from .model_store import ModelStore
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
