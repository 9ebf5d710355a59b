package fedtrans

import (
	"fedtrans/internal/data"
	"fedtrans/internal/model"
)

// initialSpec mirrors Appendix A.1's per-dataset initial models at
// reproduction scale.
func initialSpec(profile string, ds *data.Dataset) model.Spec {
	switch profile {
	case "cifar10":
		return model.MobileNetLikeSpec(ds.InputShape[0], ds.InputShape[1], ds.InputShape[2], ds.Classes)
	case "speech", "openimage":
		return model.ResNetLikeSpec(ds.InputShape[0], ds.InputShape[1], ds.InputShape[2], ds.Classes)
	case "vit":
		return model.ViTLikeSpec(ds.InputShape[0], ds.InputShape[1], 8, ds.Classes)
	default:
		// "femnist", "scale", and "async" all start from the small dense
		// NASBench analogue; the scale profile's 32-dim task keeps it tiny
		// so massive rounds stress aggregation, not the kernels, and the
		// async profile shares femnist's geometry outright.
		return model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
	}
}
