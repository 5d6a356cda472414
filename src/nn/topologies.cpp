#include "nn/topologies.hpp"

#include <stdexcept>

namespace mnsim::nn {

Network make_mlp(const std::vector<int>& sizes, NetworkType type) {
  if (sizes.size() < 2)
    throw std::invalid_argument("make_mlp: need at least in and out sizes");
  Network net;
  net.name = "mlp";
  net.type = type;
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    net.layers.push_back(Layer::fully_connected(
        "fc" + std::to_string(i + 1), sizes[i], sizes[i + 1]));
  }
  net.validate();
  return net;
}

Network make_autoencoder_64_16_64() {
  Network net = make_mlp({64, 16, 64});
  net.name = "jpeg-autoencoder";
  net.input_bits = 8;
  net.weight_bits = 4;
  return net;
}

Network make_large_bank_layer() {
  Network net = make_mlp({2048, 1024});
  net.name = "large-bank-2048x1024";
  net.input_bits = 8;   // 8-bit signals (Sec. VII-C)
  net.weight_bits = 4;  // 4-bit signed weights
  return net;
}

namespace {

void conv_block(Network& net, int& width, int& height, int in_ch, int out_ch,
                int count, int index) {
  for (int i = 0; i < count; ++i) {
    net.layers.push_back(Layer::convolution(
        "conv" + std::to_string(index) + "_" + std::to_string(i + 1),
        i == 0 ? in_ch : out_ch, out_ch, 3, width, height, /*padding=*/1));
  }
  net.layers.push_back(Layer::pooling("pool" + std::to_string(index), 2));
  width /= 2;
  height /= 2;
}

}  // namespace

Network make_caffenet() {
  Network net;
  net.name = "caffenet";
  net.type = NetworkType::kCnn;
  net.input_bits = 8;
  net.weight_bits = 8;
  // AlexNet-class geometry (stride folded into the maps for simplicity of
  // the reference: MNSIM consumes matrix shapes and iteration counts).
  Layer c1 = Layer::convolution("conv1", 3, 96, 11, 227, 227);
  c1.stride = 4;
  net.layers.push_back(c1);
  net.layers.push_back(Layer::pooling("pool1", 2));
  net.layers.push_back(Layer::convolution("conv2", 96, 256, 5, 27, 27, 2));
  net.layers.push_back(Layer::pooling("pool2", 2));
  net.layers.push_back(Layer::convolution("conv3", 256, 384, 3, 13, 13, 1));
  net.layers.push_back(Layer::convolution("conv4", 384, 384, 3, 13, 13, 1));
  net.layers.push_back(Layer::convolution("conv5", 384, 256, 3, 13, 13, 1));
  net.layers.push_back(Layer::pooling("pool5", 2));
  net.layers.push_back(Layer::fully_connected("fc6", 9216, 4096));
  net.layers.push_back(Layer::fully_connected("fc7", 4096, 4096));
  net.layers.push_back(Layer::fully_connected("fc8", 4096, 1000));
  net.validate();
  return net;
}

Network make_vgg16() {
  Network net;
  net.name = "vgg16";
  net.type = NetworkType::kCnn;
  net.input_bits = 8;   // 8-bit data (Sec. VII-D)
  net.weight_bits = 8;  // 8-bit signed weights
  int w = 224;
  int h = 224;
  conv_block(net, w, h, 3, 64, 2, 1);
  conv_block(net, w, h, 64, 128, 2, 2);
  conv_block(net, w, h, 128, 256, 3, 3);
  conv_block(net, w, h, 256, 512, 3, 4);
  conv_block(net, w, h, 512, 512, 3, 5);
  net.layers.push_back(Layer::fully_connected("fc6", 512 * 7 * 7, 4096));
  net.layers.push_back(Layer::fully_connected("fc7", 4096, 4096));
  net.layers.push_back(Layer::fully_connected("fc8", 4096, 1000));
  net.validate();
  return net;
}

}  // namespace mnsim::nn
