#include "validate.h"

#include "common/status.h"

namespace anaheim {

bool
validateSequenceHeader(const OpSequence &seq, std::vector<TraceIssue> *issues)
{
    if (seq.n != 0)
        return true;
    if (issues)
        issues->push_back({0, "sequence has no ring degree"});
    return false;
}

bool
validateOp(const KernelOp &op, size_t seqN, size_t opIndex,
           std::vector<TraceIssue> *issues)
{
    bool valid = true;
    auto report = [&](const char *text) {
        valid = false;
        if (issues)
            issues->push_back({opIndex, text});
    };

    if (op.n == 0)
        report("op has zero ring degree");
    if (op.limbs == 0)
        report("op processes zero limbs");
    if (op.n != 0 && seqN != 0 && op.n != seqN)
        report("op ring degree differs from the sequence's");
    if (op.fanIn == 0)
        report("zero fan-in");
    if (op.pimEligible && kernelClass(op.type) != KernelClass::ElementWise)
        report("non-element-wise op marked PIM-eligible");
    if (op.type != KernelType::Automorphism &&
        kernelClass(op.type) == KernelClass::ElementWise) {
        if (op.reads.empty() && op.type != KernelType::EwCAdd)
            report("element-wise op reads nothing");
        if (op.writes.empty())
            report("element-wise op writes nothing");
    }
    for (const auto &operand : op.reads) {
        if (operand.limbs == 0)
            report("read operand with zero limbs");
    }
    for (const auto &operand : op.writes) {
        if (operand.limbs == 0)
            report("write operand with zero limbs");
    }
    if ((op.type == KernelType::EwPAccum ||
         op.type == KernelType::EwCAccum) &&
        op.fanIn < 1)
        report("accumulation with no terms");
    return valid;
}

std::vector<TraceIssue>
validateTrace(const OpSequence &seq)
{
    std::vector<TraceIssue> issues;
    validateSequenceHeader(seq, &issues);
    for (size_t i = 0; i < seq.ops.size(); ++i)
        validateOp(seq.ops[i], seq.n, i, &issues);
    return issues;
}

Status
checkTraceStatus(const OpSequence &seq)
{
    const auto issues = validateTrace(seq);
    if (issues.empty())
        return Status::okStatus();
    return Status(ErrorCode::InvalidArgument,
                  detail::composeMessage(
                      "invalid trace '", seq.name, "': op ",
                      issues[0].opIndex, ": ", issues[0].description,
                      " (", issues.size(), " issue(s) total)"));
}

void
checkTrace(const OpSequence &seq)
{
    const Status status = checkTraceStatus(seq);
    if (!status.ok())
        throw AnaheimError(status.code(), status.message());
}

} // namespace anaheim
