"""Exact verification toolkit for the rank-two tensor representation of the
type-B Ariki-Koike algebra, its blob-algebra quotient, the weight modules
M_n(lambda), Specht-module duality, and the localization / restriction
criteria that govern them."""

from .scalars import (GENERIC, BlobParams, CyclotomicField, FieldContext,
                      GenericField, ParameterError, check_params,
                      cyclotomic_field, gauss_integer, lambda_params,
                      specialize, validate_params)
from .tensor import (LinOp, all_words, op_S, op_T, op_T_inv, op_theta_varpi,
                     op_X, op_Xk, verify_ariki_koike, verify_blob_identity,
                     verify_partial_rotation_fixing, weight_words)
from .blob import (BlobAction, BlobWord, apply_word, blob_generator,
                   verify_blob_relations)
from .weightmod import (WeightLabel, WeightModule, adjointness_injective,
                        adjointness_surjective, lambda_range,
                        localize, quotient_Q_scalars, special_element_scalar,
                        underline_map, weight_basis, weight_module)
from .specht import (Bitableau, MatrixRep, Shape, build_S_prime, col_shape,
                     dual_adjointness_check, dualize, gi_action, phi_map,
                     row_shape, standard_bitableaux)
from .towers import (central_z, restriction_sequence, splitting_check,
                     verify_central_z, verify_smallcase_matrices,
                     x_multiplicity_table)

__version__ = "0.1.0"
