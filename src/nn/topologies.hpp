// The workloads the paper's experiments use.
//
//  * validation MLPs — the 3-layer fully-connected NN with two 128x128
//    layers (Table II) and the 64x16x64 JPEG-style autoencoder [12],
//  * the 2048x1024 large computation-bank case (Sec. VII-C),
//  * CaffeNet (7 weighted layers, Sec. III-A) and VGG-16 (16 weighted
//    layers on 224x224x3 ImageNet inputs, Sec. VII-D).
#pragma once

#include "nn/network.hpp"

namespace mnsim::nn {

// Fully connected chain: sizes = {in, hidden..., out}. A "3-layer NN with
// two 128x128 network layers" is make_mlp({128, 128, 128}).
Network make_mlp(const std::vector<int>& sizes,
                 NetworkType type = NetworkType::kAnn);

// The JPEG-encoding approximate-computing network: 64 -> 16 -> 64.
// mnsim-analyze: allow(unreferenced-api, paper inventory: PAPER.md section 1 row 7, the 64x16x64 JPEG autoencoder)
Network make_autoencoder_64_16_64();

// The single 2048x1024 fully-connected layer of the large-bank study.
Network make_large_bank_layer();

// CaffeNet/AlexNet-class 7-weighted-layer CNN (5 conv + pools, 3 FC — the
// paper counts it as 7 computation banks: conv/fc layers only).
Network make_caffenet();

// VGG-16: 13 conv + 3 FC weighted layers, 5 max pools.
Network make_vgg16();

}  // namespace mnsim::nn
