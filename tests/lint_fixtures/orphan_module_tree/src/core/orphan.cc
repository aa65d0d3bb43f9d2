#include "core/orphan.h"

int OrphanValue() { return 1; }
