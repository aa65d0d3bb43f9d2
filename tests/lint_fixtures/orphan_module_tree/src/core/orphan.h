// Orphan-module fixture: only its own .cc, a test and an example include
// this header, so it has no caller.
// sfq-lint-expect: orphan-module
#pragma once

int OrphanValue();
