#include "fl/trainer.h"

#include <utility>

#include "nn/loss.h"
#include "util/rng.h"

namespace hetero {

float local_train(Model& model, const Dataset& data,
                  const LocalTrainConfig& cfg, Rng& rng,
                  const TrainHooks& hooks) {
  HS_CHECK(!data.empty(), "local_train: empty dataset");
  HS_CHECK(cfg.epochs > 0, "local_train: epochs must be positive");

  Sgd opt(model.net(), SgdOptions{cfg.lr, cfg.momentum, cfg.weight_decay});
  SoftmaxCrossEntropy ce;
  BceWithLogits bce;
  model.zero_grad();

  DataLoader loader(data, cfg.batch_size, rng);
  double loss_sum = 0.0;
  std::size_t batch_idx = 0;
  for (std::size_t e = 0; e < cfg.epochs; ++e) {
    if (e > 0) loader.reset(rng);
    for (std::size_t b = 0; b < loader.num_batches(); ++b) {
      Batch batch = loader.batch(b);
      if (hooks.transform_batch) hooks.transform_batch(batch, rng);

      // The batch and the loss gradient are dead after these calls, so
      // their storage is handed to the network (nn/layer.h).
      Tensor logits = model.forward(std::move(batch.x), /*train=*/true);
      LossResult lr = data.is_multi_label()
                          ? bce(logits, batch.multi_targets)
                          : ce(logits, batch.labels);
      model.backward(std::move(lr.grad));
      if (hooks.post_grad) hooks.post_grad(model);
      opt.step_and_zero();
      if (hooks.post_step) hooks.post_step(model, batch_idx);

      loss_sum += lr.loss;
      ++batch_idx;
    }
  }
  return batch_idx ? static_cast<float>(loss_sum / batch_idx) : 0.0f;
}

}  // namespace hetero
