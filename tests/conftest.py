import pytest

import figr.gradcheck
from figr.autodiff import Tensor


@pytest.fixture
def flipped_gradcheck(monkeypatch):
    """figr.gradcheck's reverse-mode gradients with their signs flipped, so
    every check must fail.  The gradient penalty's recorded backward, which
    figr.losses imports, stays correct."""
    real = figr.gradcheck.backward
    monkeypatch.setattr(figr.gradcheck, "backward",
                        lambda loss: {leaf: Tensor(-g.data) for leaf, g in real(loss).items()})
