// Examples do not count as callers.
#include "core/orphan.h"

int main() { return OrphanValue(); }
