"""Desk-scale multilingual CTC recognizer with three fine-tuning mechanisms
(language-summary frame splicing, stack surgery, posterior-query
cross-attention taps) and layer-wise representation probing tools."""

__version__ = "0.1.0"

from .ctc import Vocabulary, ctc_brute_force, ctc_greedy_decode, ctc_loss
from .datagen import CorpusSpec, Utterance, default_corpus_spec, generate_corpus, load_split
from .encoder import LayerSpec, StackConfig, Surgery, build_stack
from .errors import ConfigError, CorruptDataError, CtcInfeasibleError, NonFiniteError, SshrError
from .model import ForwardOutput, SshrConfig, SshrModel, total_loss
from .tensor import Tensor, backward, linearize, no_grad

__all__ = [
    "__version__",
    "ConfigError", "CorruptDataError", "CtcInfeasibleError", "NonFiniteError", "SshrError",
    "Tensor", "backward", "linearize", "no_grad",
    "Vocabulary", "ctc_loss", "ctc_brute_force", "ctc_greedy_decode",
    "StackConfig", "Surgery", "LayerSpec", "build_stack",
    "SshrConfig", "SshrModel", "ForwardOutput", "total_loss",
    "CorpusSpec", "Utterance", "default_corpus_spec", "generate_corpus", "load_split",
]
