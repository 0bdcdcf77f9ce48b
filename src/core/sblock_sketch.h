#ifndef SKETCHLINK_CORE_SBLOCK_SKETCH_H_
#define SKETCHLINK_CORE_SBLOCK_SKETCH_H_

// SBlockSketch (paper Sec. 6) is the bounded Sketch of core/block_sketch.h:
// BlockSketch plus the residency rule of Algorithm 4. This header adds what
// constructing one takes — the spill store and the maintenance queue its
// write-behind spills run on.

#include "common/maintenance_queue.h"
#include "core/block_sketch.h"
#include "kv/db.h"

#endif  // SKETCHLINK_CORE_SBLOCK_SKETCH_H_
