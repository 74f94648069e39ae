/**
 * @file
 * Structural validation of kernel traces. The framework and the
 * builders' tests run traces through this pass to catch malformed
 * sequences (zero-sized ops, element-wise kernels with no operands,
 * PIM-eligible compute kernels) before they silently skew the model.
 */

#ifndef ANAHEIM_TRACE_VALIDATE_H
#define ANAHEIM_TRACE_VALIDATE_H

#include <string>
#include <vector>

#include "common/status.h"
#include "kernel.h"

namespace anaheim {

/** One structural problem found in a trace. */
struct TraceIssue {
    size_t opIndex;
    std::string description;
};

/** The sequence-level rules. Returns whether they hold; when `issues`
 *  is non-null, appends every problem found. */
bool validateSequenceHeader(const OpSequence &seq,
                            std::vector<TraceIssue> *issues = nullptr);

/** The per-op rules for op `opIndex` of a sequence of ring degree
 *  `seqN`. Returns whether the op is valid; when `issues` is non-null,
 *  appends every problem found. Without `issues` it builds no strings,
 *  so a caller already walking the ops can check each one in passing
 *  and call checkTrace() on the first failure for the full message. */
bool validateOp(const KernelOp &op, size_t seqN, size_t opIndex,
                std::vector<TraceIssue> *issues = nullptr);

/** Collect every structural problem in the sequence (empty == valid).*/
std::vector<TraceIssue> validateTrace(const OpSequence &seq);

/** Status form: Ok when the trace is valid, InvalidArgument naming the
 *  first problem (and the total count) otherwise. */
Status checkTraceStatus(const OpSequence &seq);

/** Throw AnaheimError(InvalidArgument) on the first problem; use at
 *  trace-construction time. Callers may catch and recover. */
void checkTrace(const OpSequence &seq);

} // namespace anaheim

#endif // ANAHEIM_TRACE_VALIDATE_H
