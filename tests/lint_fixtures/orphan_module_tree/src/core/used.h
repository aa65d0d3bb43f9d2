// Included from src/server/caller.cc: a library caller.
#pragma once

int UsedValue();
