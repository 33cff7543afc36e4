"""Model zoo: the paper's ResNet-18 / VGG-19 plus small test models."""

from repro.nn.models.resnet import BasicBlock, ResNet18, resnet18
from repro.nn.models.simple import MLP, SmallCNN, mlp, small_cnn
from repro.nn.models.transformer import ToyTransformer, TransformerBlock, toy_transformer
from repro.nn.models.vgg import VGG19, vgg19

__all__ = [
    "ToyTransformer",
    "TransformerBlock",
    "toy_transformer",
    "BasicBlock",
    "ResNet18",
    "resnet18",
    "VGG19",
    "vgg19",
    "SmallCNN",
    "small_cnn",
    "MLP",
    "mlp",
]
