"""Exact verification toolkit for the rank-two tensor representation of the
type-B Ariki-Koike algebra, its blob-algebra quotient, the weight modules
M_n(lambda), Specht-module duality, and the localization / restriction
criteria that govern them."""

from .scalars import (GENERIC, BlobParams, CyclotomicField, FieldContext,
                      GenericField, ParameterError, check_params, context,
                      cyclotomic_field, specialize, validate_params)
from .tensor import (LinOp, all_words, op_S_ctx, op_T_ctx, op_T_inv_ctx,
                     op_theta_varpi_ctx, op_X_ctx, ops_Xk_ctx,
                     verify_ariki_koike, verify_blob_identity,
                     verify_partial_rotation_fixing, weight_words)
from .blob import verify_blob_relations, verify_relation_suite
from .weightmod import (WeightLabel, WeightModule, adjointness_record,
                        lambda_range, localize, special_element_scalar,
                        underline_map, weight_basis, weight_module)
from .specht import (Bitableau, MatrixRep, Shape, build_S_prime, col_shape,
                     dual_adjointness_check, dualize, gi_action, phi_map,
                     row_shape, standard_bitableaux)
from .towers import (restriction_sequence, splitting_check,
                     verify_central_z, verify_smallcase_matrices,
                     x_multiplicity_table, z_matrix)

__version__ = "0.1.0"
