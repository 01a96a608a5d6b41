"""Test helpers: entrywise matrix sums and the Q^T Q + I covariances the
tests draw."""

from operator import add

from hermult.tensorlin import DenseMatrix, entrywise_rows


def matrix_sum(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """a + b entry by entry, with a's entry on the left."""
    assert (a.rows, a.cols) == (b.rows, b.cols)
    return DenseMatrix(a.rows, a.cols, entrywise_rows(add, a.data, b.data))


def gram_plus_identity(q: DenseMatrix) -> DenseMatrix:
    """Q^T Q + I, positive definite for every square Q."""
    return matrix_sum(q.transpose().matmul(q), DenseMatrix.identity(q.cols))
