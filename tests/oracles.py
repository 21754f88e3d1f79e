"""Reference contractions the simulator is tested against.

Neither shares code with ``catalyq.sim``'s kernel or column readout: both
contract plain tensors with ``np.tensordot``.
"""

import numpy as np


def apply_tensor(psi, mat, axes):
    """Contract ``mat`` into tensor ``psi`` along the given qubit axes.

    ``psi`` has shape [2]*n (+ optional trailing batch axes); ``mat`` is
    2^k x 2^k with axis order matching ``axes``. Returns a new tensor.
    """
    k = len(axes)
    tensor = mat.reshape([2] * (2 * k))
    out = np.tensordot(tensor, psi, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


def project_wires(op, num_qubits, ins, outs):
    """Sandwich ``op`` between fixed states on selected wires.

    Returns (tensor of <out_w| for w in outs) op (tensor of |in_w> for ins),
    an operator on the remaining wires in ascending index order, built from
    the full dense operator. ``ins`` and ``outs`` must fix the same wires.
    """
    assert set(ins) == set(outs), "ins and outs must fix the same wires"
    n = num_qubits
    t = np.asarray(op, dtype=complex).reshape([2] * (2 * n))
    # Contract highest axis indices first so earlier positions stay valid.
    for w in sorted(ins, reverse=True):
        t = np.tensordot(t, ins[w], axes=([n + w], [0]))
    for w in sorted(outs, reverse=True):
        t = np.tensordot(outs[w].conj(), t, axes=([0], [w]))
    keep = n - len(ins)
    return t.reshape(1 << keep, 1 << keep)
