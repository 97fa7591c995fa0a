"""Per-node cost objects of a stack's rows, the reference that tests hold
the array form against."""

from dalopt.objective import LogisticCost, QuadraticCost


def node_costs(stack):
    """Row i of the stack as node i's QuadraticCost or LogisticCost, whose
    values, gradients and bounds are the row's bit for bit. A logistic row
    takes reg = node_reg[i] over one node, so that reg/N is node_reg[i]."""
    if stack.kind == "quadratic":
        return tuple(QuadraticCost(matrix=a, linear=b)
                     for a, b in zip(stack.matrices, stack.linears))
    return tuple(LogisticCost(feature=c[-1] * c[:-1], label=int(c[-1]), reg=float(r), n_nodes=1)
                 for c, r in zip(stack.samples, stack.node_reg))
