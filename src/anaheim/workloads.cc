#include "workloads.h"

#include "obs/trace.h"

namespace anaheim {

namespace {

/** Append `count` HMULT+rescale pairs at descending levels. */
void
appendMultChain(OpSequence &seq, TraceParams params, size_t count,
                size_t levelFloor = 20)
{
    for (size_t i = 0; i < count; ++i) {
        seq.append(buildHMult(params));
        if (params.level > levelFloor)
            params.level -= 1;
    }
}

/** Append `count` rotations. */
void
appendRotations(OpSequence &seq, const TraceParams &params, size_t count)
{
    for (size_t i = 0; i < count; ++i)
        seq.append(buildHRot(params));
}

} // namespace

OpSequence
makeBootWorkload(const TraceParams &params, double fftIter)
{
    OpSequence seq =
        buildBootstrap(params, fftIter, TraceLtAlgorithm::Hoisting);
    seq.name = "Boot";
    seq.levelsEff = 11.0;
    return seq;
}

OpSequence
makeHelrWorkload(const TraceParams &params)
{
    // One logistic-regression iteration: the gradient computation is a
    // handful of mults/rotations, and the weight refresh bootstraps
    // only 196 slots — its linear transforms shrink to a few diagonals
    // while every ModSwitch stays full width, which is why ModSwitch
    // dominates HELR (§VII-B).
    OpSequence seq;
    seq.name = "HELR";
    seq.n = params.n;

    TraceParams work = params;
    work.level = 24;
    appendMultChain(seq, work, 6, 16);
    appendRotations(seq, work, 8);

    // Sparse-slot bootstrap: same ModSwitch chain, tiny transforms.
    OpSequence boot =
        buildBootstrap(params, 3.0, TraceLtAlgorithm::Hoisting);
    // Shrink element-wise/plaintext work of the transforms to the
    // 196-slot scale by dropping the MAC accumulations' fan-in.
    for (auto &op : boot.ops) {
        if (op.phase == "MAC" || op.phase == "KeyMult") {
            // Keep one quarter of the rotation work.
            op.limbs = std::max<size_t>(1, op.limbs / 4);
            for (auto &operand : op.reads)
                operand.limbs = std::max<size_t>(1, operand.limbs / 4);
            for (auto &operand : op.writes)
                operand.limbs = std::max<size_t>(1, operand.limbs / 4);
        }
    }
    seq.append(boot);
    seq.levelsEff = 10.0;
    return seq;
}

OpSequence
makeSortWorkload(const TraceParams &params)
{
    // k-way sorting network on 2^14 values: ~105 compare-exchange
    // stages, each an approximate-comparison polynomial evaluation
    // (deep mult chains) plus data rearrangement rotations; the depth
    // forces frequent bootstrapping.
    OpSequence seq;
    seq.name = "Sort";
    seq.n = params.n;

    const size_t stages = 50;  // paper: ~105; halved to bound trace size
    const size_t bootsPerStage = 3;
    for (size_t s = 0; s < stages; ++s) {
        TraceParams work = params;
        work.level = 24;
        appendMultChain(seq, work, 10, 14);
        appendRotations(seq, work, 4);
        for (size_t b = 0; b < bootsPerStage; ++b) {
            seq.append(
                buildBootstrap(params, 3.5, TraceLtAlgorithm::Hoisting));
        }
    }
    seq.levelsEff = 9.0;
    return seq;
}

OpSequence
makeRnnWorkload(const TraceParams &params)
{
    // 200 RNN-cell evaluations: per cell a 128-wide matrix-vector
    // product (diagonal linear transform), element-wise gating mults,
    // and periodic bootstrapping of the hidden state.
    OpSequence seq;
    seq.name = "RNN";
    seq.n = params.n;

    const size_t cells = 100; // paper: 200; halved to bound trace size
    for (size_t c = 0; c < cells; ++c) {
        TraceParams work = params;
        work.level = 24;
        seq.append(buildLinearTransform(work, 16,
                                        TraceLtAlgorithm::Hoisting));
        appendMultChain(seq, work, 3, 14);
        if (c % 2 == 1) {
            seq.append(
                buildBootstrap(params, 3.5, TraceLtAlgorithm::Hoisting));
        }
    }
    seq.levelsEff = 10.0;
    return seq;
}

OpSequence
makeResNet20Workload(const TraceParams &params)
{
    // 20 convolutional layers as packed linear transforms [49], ReLU
    // approximations as mult chains, bootstrapping between blocks.
    OpSequence seq;
    seq.name = "ResNet20";
    seq.n = params.n;

    const size_t layers = 20;
    for (size_t layer = 0; layer < layers; ++layer) {
        TraceParams work = params;
        work.level = 24;
        seq.append(buildLinearTransform(work, 9,
                                        TraceLtAlgorithm::Hoisting));
        appendMultChain(seq, work, 6, 14); // ReLU polynomial
        seq.append(
            buildBootstrap(params, 3.5, TraceLtAlgorithm::Hoisting));
    }
    seq.levelsEff = 8.0;
    return seq;
}

OpSequence
makeResNet18AespaWorkload(const TraceParams &params)
{
    // ImageNet-scale inference with NeuJeans convolutions and AESPA's
    // quadratic activation: more data per layer (more full-slot
    // ciphertexts), shallower activation chains.
    OpSequence seq;
    seq.name = "ResNet18-AESPA";
    seq.n = params.n;

    const size_t layers = 18;
    for (size_t layer = 0; layer < layers; ++layer) {
        TraceParams work = params;
        work.level = 24;
        seq.append(buildLinearTransform(work, 16,
                                        TraceLtAlgorithm::Hoisting));
        seq.append(buildLinearTransform(work, 16,
                                        TraceLtAlgorithm::Hoisting));
        appendMultChain(seq, work, 2, 14); // AESPA square activation
        seq.append(
            buildBootstrap(params, 3.5, TraceLtAlgorithm::Hoisting));
    }
    seq.levelsEff = 7.0;
    return seq;
}

std::vector<std::pair<WorkloadInfo, OpSequence>>
makeAllWorkloads(const TraceParams &params)
{
    OBS_SPAN("trace/make_all_workloads");
    std::vector<std::pair<WorkloadInfo, OpSequence>> workloads;
    workloads.emplace_back(WorkloadInfo{"Boot", 11.0},
                           makeBootWorkload(params));
    workloads.emplace_back(WorkloadInfo{"HELR", 10.0},
                           makeHelrWorkload(params));
    workloads.emplace_back(WorkloadInfo{"Sort", 9.0},
                           makeSortWorkload(params));
    workloads.emplace_back(WorkloadInfo{"RNN", 10.0},
                           makeRnnWorkload(params));
    workloads.emplace_back(WorkloadInfo{"ResNet20", 8.0},
                           makeResNet20Workload(params));
    workloads.emplace_back(WorkloadInfo{"ResNet18-AESPA", 7.0},
                           makeResNet18AespaWorkload(params));
    return workloads;
}

} // namespace anaheim
