#include <gtest/gtest.h>

#include "anaheim/framework.h"
#include "anaheim/workloads.h"
#include "support/error_matchers.h"
#include "trace/validate.h"

namespace anaheim {
namespace {

TEST(TraceValidate, AllBuildersProduceValidTraces)
{
    for (const auto &[info, seq] : makeAllWorkloads()) {
        const auto issues = validateTrace(seq);
        EXPECT_TRUE(issues.empty())
            << info.name << ": op " << (issues.empty() ? 0 : issues[0].opIndex)
            << " "
            << (issues.empty() ? "" : issues[0].description);
    }
    for (auto algorithm :
         {TraceLtAlgorithm::Base, TraceLtAlgorithm::Hoisting,
          TraceLtAlgorithm::MinKS}) {
        const auto seq =
            buildLinearTransform(TraceParams{}, 8, algorithm);
        EXPECT_TRUE(validateTrace(seq).empty());
    }
    EXPECT_TRUE(validateTrace(buildHMult(TraceParams{})).empty());
    EXPECT_TRUE(validateTrace(buildHRot(TraceParams{})).empty());
    EXPECT_TRUE(validateTrace(buildRescale(TraceParams{})).empty());
}

// The invalid traces below: each breaks one rule of validate.cc.
OpSequence
zeroLimbTrace()
{
    OpSequence seq = buildHAdd(TraceParams{});
    seq.ops[0].limbs = 0;
    return seq;
}

OpSequence
mislabeledPimTrace()
{
    OpSequence seq = buildHMult(TraceParams{});
    for (auto &op : seq.ops) {
        if (op.type == KernelType::Ntt) {
            op.pimEligible = true;
            break;
        }
    }
    return seq;
}

OpSequence
degreeMismatchTrace()
{
    OpSequence seq = buildHAdd(TraceParams{});
    seq.ops[0].n = 1024;
    return seq;
}

OpSequence
writelessTrace()
{
    OpSequence seq = buildHAdd(TraceParams{});
    seq.ops[0].writes.clear();
    return seq;
}

OpSequence
degreelessTrace()
{
    OpSequence seq = buildHAdd(TraceParams{});
    seq.n = 0;
    return seq;
}

TEST(TraceValidate, DetectsZeroLimbOps)
{
    const auto issues = validateTrace(zeroLimbTrace());
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].description.find("zero limbs"), std::string::npos);
}

TEST(TraceValidate, DetectsMislabeledPimEligibility)
{
    const auto issues = validateTrace(mislabeledPimTrace());
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].description.find("PIM-eligible"),
              std::string::npos);
}

TEST(TraceValidate, DetectsDegreeMismatch)
{
    EXPECT_FALSE(validateTrace(degreeMismatchTrace()).empty());
}

TEST(TraceValidate, CheckTraceThrowsRecoverableErrorOnBadTrace)
{
    const OpSequence seq = writelessTrace();
    EXPECT_ANAHEIM_ERROR(checkTrace(seq), InvalidArgument,
                         "invalid trace");
    const Status status = checkTraceStatus(seq);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("writes nothing"), std::string::npos);
    // A valid trace passes both forms without throwing.
    EXPECT_TRUE(checkTraceStatus(buildHAdd(TraceParams{})).ok());
    EXPECT_NO_THROW(checkTrace(buildHAdd(TraceParams{})));
}

TEST(TraceValidate, ExecuteRejectsEachInvalidTraceWithCheckTraceMessage)
{
    // RunContext checks validity inside its one walk over the ops; a
    // rejection must carry checkTrace's message byte for byte.
    for (const bool pimEnabled : {true, false}) {
        AnaheimConfig config = AnaheimConfig::a100NearBank();
        config.pimEnabled = pimEnabled;
        const AnaheimFramework framework(config);
        for (const OpSequence &seq :
             {zeroLimbTrace(), mislabeledPimTrace(), degreeMismatchTrace(),
              writelessTrace(), degreelessTrace()}) {
            const Status expected = checkTraceStatus(seq);
            ASSERT_FALSE(expected.ok());
            const Status got = test_support::captureStatus(
                [&] { framework.execute(seq); });
            EXPECT_EQ(got.code(), ErrorCode::InvalidArgument);
            EXPECT_EQ(got.message(), expected.message());
        }
    }
}

TEST(TraceValidate, ExecuteRechecksATraceMutatedBetweenRuns)
{
    // Validity is a property of the ops as they are now, not of the
    // sequence when it was first run: nothing may be cached on it.
    const AnaheimFramework framework(AnaheimConfig::a100NearBank());
    OpSequence seq = buildHAdd(TraceParams{});
    const auto writes = seq.ops[0].writes;
    EXPECT_NO_THROW(framework.execute(seq));
    seq.ops[0].writes.clear();
    EXPECT_ANAHEIM_ERROR(framework.execute(seq), InvalidArgument,
                         "writes nothing");
    seq.ops[0].writes = writes;
    EXPECT_NO_THROW(framework.execute(seq));
}

} // namespace
} // namespace anaheim
