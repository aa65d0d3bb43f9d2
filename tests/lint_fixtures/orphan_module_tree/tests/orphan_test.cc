// Tests do not count as callers.
#include "core/orphan.h"

int main() { return OrphanValue() == 1 ? 0 : 1; }
