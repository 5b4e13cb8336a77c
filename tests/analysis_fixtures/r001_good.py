"""R001 fixes: module-level helpers, methods, explicit stacks."""


def column_names(expression) -> set:
    names = set()
    _collect(expression, names)
    return names


def _collect(node, names: set) -> None:
    names.update(node.columns)
    for child in node.children():
        _collect(child, names)


class Explainer:
    def explain(self, node, lines: list) -> None:
        lines.append(node.label)
        for child in node.children():
            self.explain(child, lines)


def depth(tree) -> int:
    best = 0
    stack = [(tree, 1)]
    while stack:
        node, level = stack.pop()
        best = max(best, level)
        stack.extend((child, level + 1) for child in node.children)
    return best


def helpers_that_do_not_recurse(values: list) -> list:
    def scale(value):
        return 2 * value

    def shifted(value):
        return scale(value) + 1

    return [shifted(value) for value in values]


def shadowed_name(values: list) -> list:
    def visit(visit):
        return visit + 1

    return [visit(value) for value in values]
