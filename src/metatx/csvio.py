"""CSV artifacts in numpy.savetxt's "%.17g" text, formatted a block at a time."""

import numpy as np

BLOCK_VALUES = 4096  # values formatted per string operation; bounds the text held


def write_csv(path, rows, header: str | None = None) -> None:
    """Write a 1-d column or 2-d table; the bytes equal ``np.savetxt(path,
    rows, delimiter=",", fmt="%.17g", header=header or "", comments="")``."""
    rows = np.asarray(rows, dtype=float)
    rows = rows.reshape(-1, 1) if rows.ndim == 1 else rows
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    per_block = max(1, BLOCK_VALUES // max(rows.shape[1], 1))
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for lo in range(0, rows.shape[0], per_block):
            block = rows[lo : lo + per_block]
            fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))
