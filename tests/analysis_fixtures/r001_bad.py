"""R001: recursive closures, each a function <-> cell cycle per call."""


def column_names(expression) -> set:
    names = set()

    def visit(node) -> None:
        names.update(node.columns)
        for child in node.children():
            visit(child)

    visit(expression)
    return names


def extract(plan, root):
    def build(node):
        if node.is_base:
            return node
        return operation(node)

    def operation(node):
        return [build(child) for child in plan.children(node)]

    return build(root)


def depth(tree) -> int:
    def walk(node) -> int:
        return 1 + max((walk(child) for child in node.children), default=0)

    return walk(tree)
